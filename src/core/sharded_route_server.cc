#include "core/sharded_route_server.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace atis::core {

ShardedRouteServer::ShardedRouteServer(
    const graph::PartitionedGraphStore* store, Options options)
    : store_(store), options_(options) {
  num_workers_ = std::max<size_t>(1, options_.num_workers);
  size_t num_groups = options_.num_groups;
  if (num_groups == 0) {
    num_groups = std::max<size_t>(1, store_->num_partitions());
  }
  num_groups = std::min(num_groups, num_workers_);

  auto& reg = obs::MetricsRegistry::Default();
  queries_metric_ = &reg.GetCounter(
      "atis_partition_queries_total",
      "Route queries served by sharded partitioned-store servers");
  cross_metric_ = &reg.GetCounter(
      "atis_partition_cross_queries_total",
      "Served queries whose source and destination lie in different "
      "partitions (stitched through the boundary overlay)");
  settled_store_metric_ = &reg.GetCounter(
      "atis_partition_settled_store_total",
      "Store nodes settled in the source and target partitions by "
      "stitched A* queries (and by flat reference Dijkstras)");
  settled_overlay_metric_ = &reg.GetCounter(
      "atis_partition_settled_overlay_total",
      "Boundary-overlay nodes of other partitions settled by stitched "
      "A* queries");
  reg.GetGauge("atis_partition_partitions",
               "Partitions (region stores) of the served partitioned store")
      .Set(static_cast<double>(store_->num_partitions()));
  reg.GetGauge("atis_partition_boundary_nodes",
               "Boundary (entry/exit) nodes of the served partitioned "
               "store's overlay")
      .Set(static_cast<double>(store_->num_boundary_nodes()));

  groups_.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    groups_.push_back(std::make_unique<Group>());
  }
  // Spread the workers across the groups as evenly as possible.
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t share = num_workers_ / num_groups +
                         (g < num_workers_ % num_groups ? 1 : 0);
    for (size_t w = 0; w < share; ++w) {
      groups_[g]->workers.emplace_back([this, g]() { WorkerLoop(g); });
    }
  }
}

ShardedRouteServer::~ShardedRouteServer() {
  stop_.store(true, std::memory_order_release);
  for (auto& group : groups_) {
    std::lock_guard<std::mutex> lock(group->mu);
    group->cv.notify_all();
  }
  for (auto& group : groups_) {
    for (std::thread& t : group->workers) t.join();
  }
}

size_t ShardedRouteServer::GroupOf(const Query& q) {
  if (options_.partition_affinity) {
    const int p = store_->PartitionOf(q.source);
    if (p >= 0) return static_cast<size_t>(p) % groups_.size();
  }
  return round_robin_.fetch_add(1, std::memory_order_relaxed) %
         groups_.size();
}

Result<std::vector<ShardedRouteServer::Response>>
ShardedRouteServer::ServeBatch(const std::vector<Query>& queries) {
  std::vector<Response> responses(queries.size());
  if (queries.empty()) return responses;
  Call call;
  call.remaining = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t g = GroupOf(queries[i]);
    Group& group = *groups_[g];
    {
      std::lock_guard<std::mutex> lock(group.mu);
      group.pending.push_back(WorkItem{&queries[i], &responses, i, &call});
    }
    group.cv.notify_one();
  }
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [&call]() { return call.remaining == 0; });
  return responses;
}

void ShardedRouteServer::WorkerLoop(size_t group_id) {
  Group& group = *groups_[group_id];
  while (true) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(group.mu);
      group.cv.wait(lock, [this, &group]() {
        return stop_.load(std::memory_order_acquire) ||
               !group.pending.empty();
      });
      if (group.pending.empty()) {
        if (stop_.load(std::memory_order_acquire)) return;
        continue;
      }
      item = group.pending.front();
      group.pending.pop_front();
    }
    Response resp = RunOne(group_id, item);
    resp.query_index = item.index;
    (*item.out)[item.index] = std::move(resp);
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      --item.call->remaining;
    }
    done_cv_.notify_all();
  }
}

ShardedRouteServer::Response ShardedRouteServer::RunOne(
    size_t group_id, const WorkItem& item) {
  Response resp;
  resp.group = static_cast<int>(group_id);
  const auto start = std::chrono::steady_clock::now();
  graph::PartitionedGraphStore::RouteCost route;
  {
    storage::IoMeter::ScopedThreadCounters scoped(&resp.io);
    Result<graph::PartitionedGraphStore::RouteCost> result =
        options_.mode == Mode::kStitched
            ? store_->StitchedDistance(item.query->source,
                                       item.query->destination, &resp.stats)
            : store_->GlobalDijkstra(item.query->source,
                                     item.query->destination, &resp.stats);
    if (!result.ok()) {
      resp.status = result.status();
    } else {
      route = *result;
    }
  }
  resp.latency_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (resp.status.ok()) {
    resp.found = route.found;
    resp.cost = route.cost;
  }
  resp.cross_partition = resp.stats.cross_partition;
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  queries_metric_->Increment();
  if (resp.cross_partition) cross_metric_->Increment();
  settled_store_metric_->Increment(resp.stats.settled_source +
                                   resp.stats.settled_target);
  settled_overlay_metric_->Increment(resp.stats.settled_overlay);
  return resp;
}

}  // namespace atis::core
