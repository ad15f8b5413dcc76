// Sharded route serving over a Hilbert-range partitioned store.
//
// RouteServer scales the single-store engine across worker replicas; it
// cannot serve a continent map because every replica is one
// RelationalGraphStore (capped at 32767 nodes). ShardedRouteServer is the
// continent-scale executor: it serves a PartitionedGraphStore
// (graph/partitioned_store.h) through worker *groups* with partition
// affinity. A query is routed to the group owning its source partition,
// so a group's workers keep touching the same partition's blocks — the
// shared BufferPool sees the same locality the Hilbert layout created —
// while queries are stitched exactly by one goal-directed A* over the
// source and target partition stores and the in-memory boundary overlay
// of every other partition.
//
// The store is immutable while serving, so unlike RouteServer there are
// no per-worker replicas: StitchedDistance and GlobalDijkstra keep all
// working state on the query's own stack, and any number of workers can
// read the store concurrently. Per-query block I/O is still accounted
// exactly via IoMeter::ScopedThreadCounters.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "graph/partitioned_store.h"
#include "storage/io_meter.h"
#include "util/status.h"

namespace atis::obs {
class Counter;
}  // namespace atis::obs

namespace atis::core {

class ShardedRouteServer {
 public:
  /// How queries are answered. kStitched is the serving path; kGlobal
  /// runs the flat reference Dijkstra over the same store — the
  /// unpartitioned baseline stitched serving is benchmarked against.
  enum class Mode { kStitched, kGlobalDijkstra };

  struct Options {
    /// Worker threads across all groups. Clamped to >= 1.
    size_t num_workers = 4;
    /// Worker groups; 0 = one per partition, capped at num_workers.
    size_t num_groups = 0;
    /// Route a query to the group owning its source partition (groups
    /// cover partitions round-robin). When off, queries are spread
    /// round-robin regardless of partition — the locality-blind control.
    bool partition_affinity = true;
    Mode mode = Mode::kStitched;
  };

  struct Query {
    graph::NodeId source = 0;
    graph::NodeId destination = 0;
  };

  struct Response {
    size_t query_index = 0;
    Status status;               ///< non-OK when the query failed
    bool found = false;          ///< a route exists (valid iff status ok)
    double cost = 0.0;
    storage::IoCounters io;      ///< exact block I/O of this query
    double latency_seconds = 0.0;
    int group = -1;              ///< the worker group that served it
    bool cross_partition = false;
    graph::PartitionedGraphStore::QueryStats stats;
  };

  /// Starts the worker groups over `store` (not owned; must outlive the
  /// server and stay immutable while serving).
  ShardedRouteServer(const graph::PartitionedGraphStore* store,
                     Options options);

  ShardedRouteServer(const ShardedRouteServer&) = delete;
  ShardedRouteServer& operator=(const ShardedRouteServer&) = delete;

  /// Graceful shutdown: running queries finish, workers join.
  ~ShardedRouteServer();

  /// Runs the batch across the groups and blocks until every query has an
  /// answer; responses align positionally with `queries`. A failed query
  /// gets a non-OK per-response status — the batch itself still succeeds.
  /// Safe to call from multiple dispatcher threads.
  Result<std::vector<Response>> ServeBatch(
      const std::vector<Query>& queries);

  size_t num_groups() const { return groups_.size(); }
  size_t num_workers() const { return num_workers_; }

  /// Queries served since construction (relaxed).
  uint64_t queries_served() const {
    return queries_served_.load(std::memory_order_relaxed);
  }

 private:
  /// One ServeBatch invocation's completion state.
  struct Call {
    size_t remaining = 0;  // guarded by done_mu_
  };
  struct WorkItem {
    const Query* query = nullptr;
    std::vector<Response>* out = nullptr;
    size_t index = 0;
    Call* call = nullptr;
  };
  /// One worker group: its own queue so affinity routing never contends
  /// with other groups' dispatch.
  struct Group {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<WorkItem> pending;  // guarded by mu
    std::vector<std::thread> workers;
  };

  void WorkerLoop(size_t group_id);
  Response RunOne(size_t group_id, const WorkItem& item);
  /// Group a query is routed to (source partition under affinity).
  size_t GroupOf(const Query& q);

  const graph::PartitionedGraphStore* store_;
  Options options_;
  size_t num_workers_ = 0;
  std::vector<std::unique_ptr<Group>> groups_;
  std::atomic<uint64_t> round_robin_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<bool> stop_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  // atis_partition_* metric series, resolved once at construction.
  obs::Counter* queries_metric_ = nullptr;
  obs::Counter* cross_metric_ = nullptr;
  obs::Counter* settled_store_metric_ = nullptr;
  obs::Counter* settled_overlay_metric_ = nullptr;
};

}  // namespace atis::core
