// live_traffic: a 4096-node road map served by RouteServer with A*
// Version 5 (overlay cell order 3) and the route cache on, writes beside
// reads. The write-ahead log is on, with fsync on every commit and a
// checkpoint every 32 batches; the pool holds the whole store. Two workers
// serve two closed-loop clients, one request of 8 routes outstanding each,
// over uniform pairs (almost none repeat). Beside them a writer thread
// commits 16-edge ApplyUpdates batches mixing cost increases and
// decreases, one for every 32 queries the clients send.
//
// Set-up is a restart: RouteServer is constructed over the WAL directory
// an untimed earlier phase left behind, so it recovers a checkpoint plus
// the frames committed after it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "checker.h"
#include "common.h"
#include "core/route_server.h"
#include "graph/road_map_generator.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

using atis::core::EdgeCostUpdate;
using atis::core::RouteQuery;
using atis::core::RouteServer;
using atis::graph::NodeId;

constexpr int kMapSide = 64;  // 4096 nodes
constexpr size_t kMapEdges = 12400;
constexpr size_t kClients = 2;
constexpr size_t kQueriesPerRound = 64;  // per client
// Routes per request. Eight, not one: with one, every query is a hand-off
// to a worker thread and back, and those hand-offs slow most when the
// shared host is busy; qps then spread by up to a third between runs.
constexpr size_t kQueriesPerCall = 8;
// The writer's commits per round: one per 32 queries. A thread of its own,
// not a client committing between its requests: a client's commits made
// the round wait for that client's reads and writes in series, and qps
// then fell by up to half when the shared host was busy.
constexpr size_t kCommitsPerRound = kClients * kQueriesPerRound / 32;
constexpr size_t kEdgesPerUpdate = 16;
constexpr uint64_t kCheckpointEvery = 32;
constexpr size_t kHistoryBatches = 40;  // committed before the restart
constexpr int kSetupRepeats = 5;
static_assert(kQueriesPerRound % kQueriesPerCall == 0);

atis::graph::Graph MakeMap() {
  atis::graph::RoadMapOptions o;
  o.base_k = kMapSide;
  o.target_directed_edges = kMapEdges;
  auto map = atis::graph::GenerateMinneapolisLike(o);
  if (!map.ok()) Fatal("map generation: " + map.status().ToString());
  return std::move(map->graph);
}

RouteServer::Options ServerOptions(const std::string& wal_dir) {
  RouteServer::Options o;
  o.num_workers = 2;
  o.pool_frames = 8192;
  o.layout = atis::graph::StoreLayout::kHilbert;
  o.overlay_cell_order = 3;
  o.enable_cache = true;
  o.wal.dir = wal_dir;
  o.wal.sync_on_commit = true;
  o.wal.checkpoint_every = kCheckpointEvery;
  return o;
}

/// 16 random edges, each set to its base cost times U(0.7, 1.5): against
/// the current cost some rise and some fall.
std::vector<EdgeCostUpdate> MakeBatch(const atis::graph::Graph& g,
                                      atis::Rng& rng) {
  std::vector<EdgeCostUpdate> batch;
  while (batch.size() < kEdgesPerUpdate) {
    const auto u = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    const auto out = g.Neighbors(u);
    if (out.empty()) continue;
    const auto& e = out[rng.UniformInt(out.size())];
    batch.push_back({u, e.to, e.cost * rng.UniformDouble(0.7, 1.5)});
  }
  return batch;
}

struct Answer {
  RouteQuery query;
  atis::core::RouteResponse response;
  double client_seconds = 0.0;
};

struct Commit {
  std::vector<EdgeCostUpdate> batch;
  uint64_t version = 0;  // the metric version it published
  double seconds = 0.0;
  bool ok = false;
};

}  // namespace

Report RunLiveTraffic(const Options& options) {
  namespace fs = std::filesystem;
  TraceSet traces(options.trace);
  TraceScope bind(traces.NewTracer());
  const std::string wal_dir = options.workdir + "/live_traffic-wal-" +
                              std::to_string(::getpid());
  fs::remove_all(wal_dir);
  fs::create_directories(wal_dir);

  // Untimed history: commits that the timed restart must recover.
  const atis::graph::Graph base = MakeMap();
  RefMap ref(base);
  {
    atis::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 7);
    RouteServer server(base, ServerOptions(wal_dir));
    if (!server.init_status().ok()) {
      Fatal("RouteServer: " + server.init_status().ToString());
    }
    for (size_t i = 0; i < kHistoryBatches; ++i) {
      const auto batch = MakeBatch(base, rng);
      if (!server.ApplyUpdates(batch).ok()) Fatal("history commit failed");
      for (const EdgeCostUpdate& e : batch) ref.SetCost(e.u, e.v, e.cost);
    }
  }

  atis::graph::Graph g;
  std::unique_ptr<RouteServer> server;
  const SetupTimes setup = TimeSetup(
      kSetupRepeats, [&] { server.reset(); }, "graph.generate",
      [&] { g = MakeMap(); }, "route_server.construct", [&] {
        server = std::make_unique<RouteServer>(g, ServerOptions(wal_dir));
        if (!server->init_status().ok()) {
          Fatal("RouteServer: " + server->init_status().ToString());
        }
      });
  const RouteServer::IngestStats recovered = server->ingest_stats();
  std::fprintf(stderr,
               "live_traffic: %zu nodes, %zu edges, %zu pages on disk (store "
               "replicas, overlay), %zu pool frames, %llu batches recovered\n",
               g.num_nodes(), g.num_edges(), server->disk().num_allocated(),
               ServerOptions(wal_dir).pool_frames,
               static_cast<unsigned long long>(recovered.recovered_batches));

  // Every node with an out-edge lies in the strongly connected core.
  std::vector<NodeId> nodes;
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(static_cast<NodeId>(u)) > 0) {
      nodes.push_back(static_cast<NodeId>(u));
    }
  }

  auto& recustomized = atis::obs::MetricsRegistry::Default().GetCounter(
      "atis_overlay_cells_recustomized_total",
      "Cells whose shortcut tables were (re)computed");
  std::vector<atis::Rng> rngs;  // the clients' and the writer's
  for (size_t c = 0; c <= kClients; ++c) {
    rngs.emplace_back(options.seed * 0x9e3779b97f4a7c15ULL + 11 + c);
  }
  // Answers are checked and dropped after every round, against `ref`
  // advanced commit by commit to the metric version each answer reports
  // (version 1 is the recovered metric; the k-th commit publishes 1 + k).
  std::vector<std::vector<Answer>> answers(kClients);  // this round's
  std::vector<Commit> commits;                         // this round's
  std::deque<Commit> unapplied;
  Report report;
  atis::storage::BufferPoolStats pool0{};
  atis::storage::IoCounters disk0{};
  RouteServer::IngestStats ingest0{};
  uint64_t recustomized0 = 0;
  std::vector<double> client_ms, service_ms, wait_ms, update_ms;
  atis::storage::IoCounters io;
  uint64_t answered = 0, cache_hits = 0, engine = 0, iterations = 0,
           generated = 0, updates = 0;
  auto check_round = [&](size_t round) {
    const bool measured = round > 0;
    for (Commit& c : commits) {
      if (measured) {
        ++updates;
        update_ms.push_back(c.seconds * 1e3);
        report.failed += c.ok ? 0 : 1;
      }
      if (c.ok) unapplied.push_back(std::move(c));
    }
    commits.clear();
    std::vector<const Answer*> ok;
    for (const auto& per_client : answers) {
      for (const Answer& a : per_client) {
        const auto& r = a.response;
        if (!r.status.ok()) {
          report.failed += measured ? 1 : 0;
          continue;
        }
        ok.push_back(&a);
        if (!measured) continue;
        ++answered;
        client_ms.push_back(a.client_seconds * 1e3);
        service_ms.push_back(r.latency_seconds * 1e3);
        wait_ms.push_back((a.client_seconds - r.latency_seconds) * 1e3);
        io += r.io;
        cache_hits += r.cache_hit ? 1 : 0;
        if (r.served_via == atis::core::ServedVia::kEngine) {
          ++engine;
          iterations += r.result.stats.iterations;
          generated += r.result.stats.nodes_generated;
        }
      }
    }
    std::stable_sort(ok.begin(), ok.end(), [](const Answer* x, const Answer* y) {
      return x->response.metric_version < y->response.metric_version;
    });
    for (const Answer* a : ok) {
      const uint64_t v = a->response.metric_version;
      for (; !unapplied.empty() && unapplied.front().version <= v;
           unapplied.pop_front()) {
        for (const EdgeCostUpdate& e : unapplied.front().batch) {
          ref.SetCost(e.u, e.v, e.cost);
        }
      }
      const RouteQuery& q = a->query;
      const auto& r = a->response.result;
      const std::string why =
          CheckRoute(ref, q.source, q.destination, r.found, r.cost, r.path,
                     ref.Distance(q.source, q.destination));
      if (!why.empty() && report.correct) {
        std::fprintf(stderr,
                     "live_traffic: wrong answer for query %d -> %d at metric "
                     "version %llu: %s\n",
                     q.source, q.destination,
                     static_cast<unsigned long long>(v), why.c_str());
        report.correct = false;
      }
    }
    for (auto& per_client : answers) per_client.clear();
    if (round == 0) {
      pool0 = server->pool().stats();
      disk0 = server->disk().meter().counters();
      ingest0 = server->ingest_stats();
      recustomized0 = recustomized.value();
    }
  };
  // Threads 0 .. kClients - 1 are the clients; thread kClients writes.
  const std::vector<double> round_s = RunRounds(
      kClients + 1, options.seconds, &traces,
      [&](size_t c, size_t) {
        atis::Rng& rng = rngs[c];
        if (c == kClients) {
          for (size_t k = 0; k < kCommitsPerRound; ++k) {
            Commit commit;
            commit.batch = MakeBatch(g, rng);
            Span span("route_server.ApplyUpdates", "update");
            const auto t0 = Clock::now();
            commit.ok = server->ApplyUpdates(commit.batch).ok();
            commit.seconds = SecondsSince(t0);
            commit.version = server->published_version();
            commits.push_back(std::move(commit));
          }
          return;
        }
        for (size_t i = 0; i < kQueriesPerRound; i += kQueriesPerCall) {
          std::vector<RouteQuery> call(kQueriesPerCall);
          for (RouteQuery& q : call) {
            q.source = nodes[rng.UniformInt(nodes.size())];
            do {
              q.destination = nodes[rng.UniformInt(nodes.size())];
            } while (q.destination == q.source);
            q.algorithm = atis::core::Algorithm::kAStar;
            q.version = atis::core::AStarVersion::kV5;
          }
          Span span("route_server.ServeBatch", "request");
          const auto t0 = Clock::now();
          auto r = server->ServeBatch(call);
          const double took = SecondsSince(t0);
          for (size_t j = 0; j < call.size(); ++j) {
            Answer a;
            a.query = call[j];
            a.client_seconds = took;
            if (r.ok()) {
              a.response = std::move((*r)[j]);
            } else {
              a.response.status = r.status();
            }
            answers[c].push_back(std::move(a));
          }
        }
      },
      check_round);
  const double peak_rss = PeakRssMb();
  const atis::storage::BufferPoolStats pool1 = server->pool().stats();
  const atis::storage::IoCounters disk_io =
      server->disk().meter().counters() - disk0;
  const RouteServer::IngestStats ingest1 = server->ingest_stats();
  const double cells = static_cast<double>(recustomized.value() - recustomized0);
  const double qps = MedianRate(kClients * kQueriesPerRound, round_s);
  report.attempted =
      round_s.size() * (kClients * kQueriesPerRound + kCommitsPerRound);

  const double n = static_cast<double>(answered);
  const double u = static_cast<double>(updates);
  Values e2e{{"setup_s", Median(setup.total)},
             {"qps", qps},
             {"latency_p50_ms", Median(client_ms)},
             {"io_units_per_query", IoUnitsPerQuery(disk_io, answered)},
             {"peak_rss_mb", peak_rss}};
  Values layers{
      {"graph.generate_s", Median(setup.first)},
      {"route_server.construct_s", Median(setup.second)},
      {"route_server.service_p50_ms", Median(service_ms)},
      {"route_server.queue_wait_p50_ms", Median(wait_ms)},
      {"route_server.update_p50_ms", Median(update_ms)},
      {"route_server.catchups_per_update",
       static_cast<double>(ingest1.worker_catchups - ingest0.worker_catchups) /
           u},
      {"route_cache.hit_ratio", static_cast<double>(cache_hits) / n},
      {"db_search.iterations_per_query",
       Ratio(static_cast<double>(iterations), static_cast<double>(engine))},
      {"db_search.nodes_generated_per_query",
       Ratio(static_cast<double>(generated), static_cast<double>(engine))},
      {"overlay.cells_recustomized_per_update", cells / u},
      {"update_log.bytes_per_update",
       static_cast<double>(ingest1.bytes_appended - ingest0.bytes_appended) /
           u},
      {"update_log.checkpoints",
       static_cast<double>(ingest1.checkpoints - ingest0.checkpoints)},
      {"update_log.recovered_batches",
       static_cast<double>(recovered.recovered_batches)},
      {"trace.qps", qps},
      {"trace.spans_per_query", static_cast<double>(traces.SpanCount()) / n},
  };
  AddIoLayers(pool0, pool1, io, n, &layers);
  Emit(options, e2e, layers, &report);
  server.reset();
  fs::remove_all(wal_dir);
  if (traces.enabled()) traces.WriteAll(options.workdir, "live_traffic");
  return report;
}

}  // namespace perfbench
