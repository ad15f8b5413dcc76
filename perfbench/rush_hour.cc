// rush_hour: the paper-scale Minneapolis-like map (1089 nodes, Hilbert
// layout) served by RouteServer with A* Version 4 (8 landmarks), the route
// cache and batching (max_batch 8) on. One worker runs over a 32-frame
// pool, smaller than the store, so the pool evicts. One client submits
// bursts of 64 queries: sources Zipf-skewed over coarse Hilbert regions,
// destinations Zipf-skewed over a small downtown set, so pairs repeat.
//
// Every round replays the same seeded bursts after clearing the route
// cache, and with one worker batch composition is fixed, so cache hits
// and block counts are identical in every measured round.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "checker.h"
#include "common.h"
#include "core/batch_engine.h"
#include "core/route_server.h"
#include "graph/road_map_generator.h"

namespace perfbench {
namespace {

using atis::core::RouteQuery;
using atis::core::RouteResponse;
using atis::core::RouteServer;
using atis::graph::NodeId;

constexpr size_t kBurst = 64;
constexpr size_t kBurstsPerRound = 16;
constexpr size_t kDowntownNodes = 8;
constexpr uint32_t kRegionOrder = 3;
constexpr double kZipfS = 1.2;
constexpr int kSetupRepeats = 9;  // set-up is ~15 ms: many, for a steady median

RouteServer::Options ServerOptions() {
  RouteServer::Options o;
  o.num_workers = 1;
  o.pool_frames = 32;
  o.layout = atis::graph::StoreLayout::kHilbert;
  o.num_landmarks = 8;
  o.enable_cache = true;
  o.max_batch = 8;
  o.batch_region_order = kRegionOrder;
  return o;
}

atis::graph::Graph MakeMap() {
  auto map = atis::graph::GenerateMinneapolisLike();
  if (!map.ok()) Fatal("map generation: " + map.status().ToString());
  return std::move(map->graph);
}

/// One round of bursts. Sources: a Zipf draw over Hilbert regions ranked
/// by population, then a uniform node of that region. Destinations: a
/// Zipf draw over the downtown nodes nearest the map's centroid. Only
/// nodes of the strongly connected core (reachable from downtown) are
/// used, so every pair has a route.
std::vector<std::vector<RouteQuery>> MakeRound(const atis::graph::Graph& g,
                                               const RefMap& ref,
                                               uint64_t seed) {
  double cx = 0.0, cy = 0.0;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    cx += g.point(static_cast<NodeId>(u)).x;
    cy += g.point(static_cast<NodeId>(u)).y;
  }
  cx /= static_cast<double>(g.num_nodes());
  cy /= static_cast<double>(g.num_nodes());
  std::vector<NodeId> by_distance(g.num_nodes());
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    by_distance[u] = static_cast<NodeId>(u);
  }
  auto d2 = [&](NodeId u) {
    const auto& p = g.point(u);
    return (p.x - cx) * (p.x - cx) + (p.y - cy) * (p.y - cy);
  };
  std::sort(by_distance.begin(), by_distance.end(),
            [&](NodeId a, NodeId b) { return d2(a) < d2(b); });
  const std::vector<double> reach = ref.DistancesFrom(by_distance.front());

  std::vector<NodeId> downtown;
  for (NodeId u : by_distance) {
    if (downtown.size() < kDowntownNodes && !std::isinf(reach[u])) {
      downtown.push_back(u);
    }
  }
  const atis::core::RegionIndex regions(g, kRegionOrder);
  std::map<uint64_t, std::vector<NodeId>> by_region;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    if (!std::isinf(reach[u])) {
      by_region[regions.RegionOf(static_cast<NodeId>(u))].push_back(
          static_cast<NodeId>(u));
    }
  }
  std::vector<std::vector<NodeId>> ranked;
  for (auto& [region, nodes] : by_region) ranked.push_back(std::move(nodes));
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.size() > b.size();
                   });

  atis::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const Zipf region_zipf(ranked.size(), kZipfS);
  const Zipf downtown_zipf(downtown.size(), kZipfS);
  std::vector<std::vector<RouteQuery>> bursts(kBurstsPerRound);
  for (auto& burst : bursts) {
    while (burst.size() < kBurst) {
      const std::vector<NodeId>& cell = ranked[region_zipf(rng)];
      RouteQuery q;
      q.source = cell[rng.UniformInt(cell.size())];
      q.destination = downtown[downtown_zipf(rng)];
      q.algorithm = atis::core::Algorithm::kAStar;
      q.version = atis::core::AStarVersion::kV4;
      if (q.source != q.destination) burst.push_back(q);
    }
  }
  return bursts;
}

}  // namespace

Report RunRushHour(const Options& options) {
  TraceSet traces(options.trace);
  TraceScope bind(traces.NewTracer());

  atis::graph::Graph g;
  std::unique_ptr<RouteServer> server;
  const SetupTimes setup = TimeSetup(
      kSetupRepeats, [&] { server.reset(); }, "graph.generate",
      [&] { g = MakeMap(); }, "route_server.construct", [&] {
        server = std::make_unique<RouteServer>(g, ServerOptions());
        if (!server->init_status().ok()) {
          Fatal("RouteServer: " + server->init_status().ToString());
        }
      });

  std::fprintf(stderr, "rush_hour: %zu nodes, %zu edges, %zu store pages, %zu pool frames\n",
               g.num_nodes(), g.num_edges(), server->disk().num_allocated(),
               ServerOptions().pool_frames);
  const RefMap ref(g);
  const auto bursts = MakeRound(g, ref, options.seed);

  // Answers are checked and dropped after every round, so what the
  // benchmark keeps does not grow with the run and stays out of peak RSS.
  struct Burst {
    double seconds = 0.0;
    size_t index = 0;  // into `bursts`
    atis::Result<std::vector<RouteResponse>> responses;
  };
  std::vector<Burst> round_bursts;
  std::map<std::pair<NodeId, NodeId>, double> want;  // reference costs
  Report report;
  atis::storage::BufferPoolStats pool0{};
  atis::storage::IoCounters disk0{};
  uint64_t batches0 = 0, members0 = 0, fetches0 = 0, shared0 = 0;
  atis::storage::IoCounters io;
  std::vector<double> burst_ms, service_ms, wait_ms;
  uint64_t answered = 0, cache_hits = 0, coalesced = 0, engine = 0;
  uint64_t iterations = 0, generated = 0;
  auto check_round = [&](size_t round) {
    for (const Burst& burst : round_bursts) {
      if (round > 0) burst_ms.push_back(burst.seconds * 1e3);
      if (!burst.responses.ok()) {
        report.failed += round > 0 ? kBurst : 0;
        continue;
      }
      for (const RouteResponse& r : *burst.responses) {
        const RouteQuery& q = bursts[burst.index][r.query_index];
        if (!r.status.ok()) {
          report.failed += round > 0 ? 1 : 0;
          continue;
        }
        auto it = want.find({q.source, q.destination});
        if (it == want.end()) {
          it = want.emplace(std::pair{q.source, q.destination},
                            ref.Distance(q.source, q.destination))
                   .first;
        }
        const std::string why =
            CheckRoute(ref, q.source, q.destination, r.result.found,
                       r.result.cost, r.result.path, it->second);
        if (!why.empty() && report.correct) {
          std::fprintf(stderr,
                       "rush_hour: wrong answer for query %d -> %d: %s\n",
                       q.source, q.destination, why.c_str());
          report.correct = false;
        }
        if (round == 0) continue;
        ++answered;
        io += r.io;
        service_ms.push_back(r.latency_seconds * 1e3);
        wait_ms.push_back((burst.seconds - r.latency_seconds) * 1e3);
        cache_hits += r.cache_hit ? 1 : 0;
        coalesced += r.coalesced ? 1 : 0;
        if (r.served_via == atis::core::ServedVia::kEngine) {
          ++engine;
          iterations += r.result.stats.iterations;
          generated += r.result.stats.nodes_generated;
        }
      }
    }
    round_bursts.clear();
    if (round == 0) {
      pool0 = server->pool().stats();
      disk0 = server->disk().meter().counters();
      batches0 = server->batches_executed();
      members0 = server->batch_members_executed();
      fetches0 = server->batch_adjacency_fetches();
      shared0 = server->batch_shared_hits();
    }
  };
  const std::vector<double> round_s = RunRounds(
      1, options.seconds, &traces,
      [&](size_t, size_t) {
        server->cache()->Clear();
        for (size_t b = 0; b < bursts.size(); ++b) {
          Span span("route_server.ServeBatch", "request");
          const auto t0 = Clock::now();
          auto responses = server->ServeBatch(bursts[b]);
          round_bursts.push_back({SecondsSince(t0), b, std::move(responses)});
        }
      },
      check_round);
  const double peak_rss = PeakRssMb();
  const atis::storage::BufferPoolStats pool1 = server->pool().stats();
  const atis::storage::IoCounters disk_io =
      server->disk().meter().counters() - disk0;
  const double qps = MedianRate(kBurstsPerRound * kBurst, round_s);
  report.attempted = round_s.size() * kBurstsPerRound * kBurst;
  if (!IoSumsAgree("rush_hour", io, disk_io)) report.correct = false;

  const double n = static_cast<double>(answered);
  Values e2e{{"setup_s", Median(setup.total)},
             {"qps", qps},
             {"latency_p50_ms", Median(burst_ms)},
             {"io_units_per_query", IoUnitsPerQuery(io, answered)},
             {"peak_rss_mb", peak_rss}};
  const double batches = static_cast<double>(server->batches_executed() - batches0);
  const double fetches =
      static_cast<double>(server->batch_adjacency_fetches() - fetches0);
  const double shared = static_cast<double>(server->batch_shared_hits() - shared0);
  Values layers{
      {"graph.generate_s", Median(setup.first)},
      {"route_server.construct_s", Median(setup.second)},
      {"route_server.service_p50_ms", Median(service_ms)},
      {"route_server.queue_wait_p50_ms", Median(wait_ms)},
      {"route_cache.hit_ratio", static_cast<double>(cache_hits) / n},
      {"batch_engine.mean_batch_size",
       Ratio(static_cast<double>(server->batch_members_executed() - members0),
             batches)},
      {"batch_engine.shared_hit_ratio", Ratio(shared, fetches + shared)},
      {"batch_engine.coalesced_share", static_cast<double>(coalesced) / n},
      {"db_search.iterations_per_query",
       Ratio(static_cast<double>(iterations), static_cast<double>(engine))},
      {"db_search.nodes_generated_per_query",
       Ratio(static_cast<double>(generated), static_cast<double>(engine))},
      {"trace.qps", qps},
      {"trace.spans_per_query", static_cast<double>(traces.SpanCount()) / n},
  };
  AddIoLayers(pool0, pool1, io, n, &layers);
  Emit(options, e2e, layers, &report);
  if (traces.enabled()) traces.WriteAll(options.workdir, "rush_hour");
  return report;
}

}  // namespace perfbench
