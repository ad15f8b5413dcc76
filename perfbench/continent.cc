// continent: a ~100k-node ContinentGenerator map (121 cities of 29 x 29)
// streamed to an ATISG2 file and built by PartitionedGraphStore::Build over
// a 1024-frame pool, far smaller than the map. ShardedRouteServer serves
// it in stitched mode with two workers to two closed-loop clients over
// uniform pairs; most pairs cross partitions. Set-up is the streaming
// build.
//
// Every answer must report a route (the map is strongly connected by
// construction); a seeded sample of answers is checked against an
// independent Dijkstra over the materialised map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

#include "checker.h"
#include "common.h"
#include "core/sharded_route_server.h"
#include "graph/continent_generator.h"
#include "graph/partitioned_store.h"

namespace perfbench {
namespace {

using atis::core::ShardedRouteServer;
using atis::graph::NodeId;
using atis::graph::PartitionedGraphStore;

constexpr size_t kClients = 2;
constexpr size_t kQueriesPerRound = 4;  // per client
constexpr size_t kPoolFrames = 1024;
constexpr size_t kVerifySample = 64;
constexpr size_t kStitchSample = 32;
constexpr size_t kVerifyThreads = 4;
constexpr int kSetupRepeats = 3;

atis::graph::ContinentOptions MapOptions() {
  atis::graph::ContinentOptions o;
  o.num_cities = 121;
  o.city_k = 29;
  return o;
}

/// The store with the disk and pool it lives in.
struct Built {
  std::unique_ptr<atis::storage::DiskManager> disk;
  std::unique_ptr<atis::storage::BufferPool> pool;
  std::unique_ptr<PartitionedGraphStore> store;
};

struct Answer {
  ShardedRouteServer::Query query;
  ShardedRouteServer::Response response;
  double client_seconds = 0.0;
};

}  // namespace

Report RunContinent(const Options& options) {
  namespace fs = std::filesystem;
  TraceSet traces(options.trace);
  TraceScope bind(traces.NewTracer());
  const std::string map_path = options.workdir + "/continent-" +
                               std::to_string(::getpid()) + ".atisg";

  auto gen = atis::graph::ContinentGenerator::Create(MapOptions());
  if (!gen.ok()) Fatal("continent generator: " + gen.status().ToString());
  Built built;
  const SetupTimes setup = TimeSetup(
      kSetupRepeats,
      [&] {
        built.store.reset();  // before the pool and disk it lives in
        built.pool.reset();
      },
      "graph.generate",
      [&] {
        if (auto s = gen->WriteTo(map_path); !s.ok()) {
          Fatal("writing the map: " + s.ToString());
        }
      },
      "partitioned_store.build", [&] {
        built.disk = std::make_unique<atis::storage::DiskManager>();
        built.pool = std::make_unique<atis::storage::BufferPool>(
            built.disk.get(), kPoolFrames, 8);
        auto store = PartitionedGraphStore::Build(map_path, built.pool.get());
        if (!store.ok()) Fatal("build: " + store.status().ToString());
        built.store = std::move(store).value();
      });
  fs::remove(map_path);
  const PartitionedGraphStore& store = *built.store;
  const auto n_nodes = static_cast<int64_t>(store.num_nodes());

  ShardedRouteServer::Options server_options;
  server_options.num_workers = 2;
  server_options.mode = ShardedRouteServer::Mode::kStitched;
  ShardedRouteServer server(&store, server_options);
  std::fprintf(stderr,
               "continent: %llu nodes, %llu edges, %zu partitions, %zu "
               "boundary nodes, %zu store pages, %zu pool frames\n",
               static_cast<unsigned long long>(store.num_nodes()),
               static_cast<unsigned long long>(store.num_edges()),
               store.num_partitions(), store.num_boundary_nodes(),
               built.disk->num_allocated(), kPoolFrames);

  std::vector<atis::Rng> rngs;
  for (size_t c = 0; c < kClients; ++c) {
    rngs.emplace_back(options.seed * 0x9e3779b97f4a7c15ULL + 11 + c);
  }
  // Answers are checked and dropped after every round. The cost check
  // needs the materialised map, which is built only after the measured
  // phase, so a seeded reservoir keeps a uniform sample of the measured
  // answers for it: what the benchmark keeps does not grow with the run.
  std::vector<std::vector<Answer>> answers(kClients);  // this round's
  std::vector<Answer> sample;
  atis::Rng sample_rng(options.seed * 0x9e3779b97f4a7c15ULL + 3);
  Report report;
  atis::storage::BufferPoolStats pool0{};
  atis::storage::IoCounters disk0{};
  std::vector<double> client_ms, service_ms, wait_ms;
  atis::storage::IoCounters io;
  uint64_t answered = 0, settled_store = 0, settled_overlay = 0;
  auto check_round = [&](size_t round) {
    const bool measured = round > 0;
    for (auto& per_client : answers) {
      for (Answer& a : per_client) {
        const auto& r = a.response;
        if (!r.status.ok() || !r.found) {
          if (r.status.ok() && report.correct) {
            std::fprintf(stderr,
                         "continent: wrong answer for query %d -> %d: no "
                         "route on a strongly connected map\n",
                         a.query.source, a.query.destination);
            report.correct = false;
          }
          report.failed += measured ? 1 : 0;
          continue;
        }
        if (!measured) continue;
        client_ms.push_back(a.client_seconds * 1e3);
        service_ms.push_back(r.latency_seconds * 1e3);
        wait_ms.push_back((a.client_seconds - r.latency_seconds) * 1e3);
        io += r.io;
        settled_store += r.stats.settled_source + r.stats.settled_target;
        settled_overlay += r.stats.settled_overlay;
        if (sample.size() < kVerifySample) {
          sample.push_back(std::move(a));
        } else if (const uint64_t j = sample_rng.UniformInt(answered + 1);
                   j < kVerifySample) {
          sample[j] = std::move(a);
        }
        ++answered;
      }
      per_client.clear();
    }
    if (round == 0) {
      pool0 = built.pool->stats();
      disk0 = built.disk->meter().counters();
    }
  };
  const std::vector<double> round_s = RunRounds(
      kClients, options.seconds, &traces,
      [&](size_t c, size_t) {
        atis::Rng& rng = rngs[c];
        for (size_t i = 0; i < kQueriesPerRound; ++i) {
          Answer a;
          a.query.source = static_cast<NodeId>(rng.UniformInt(0, n_nodes - 1));
          do {
            a.query.destination =
                static_cast<NodeId>(rng.UniformInt(0, n_nodes - 1));
          } while (a.query.destination == a.query.source);
          Span span("sharded_route_server.ServeBatch", "request");
          const auto t0 = Clock::now();
          auto r = server.ServeBatch({a.query});
          a.client_seconds = SecondsSince(t0);
          if (r.ok()) {
            a.response = std::move((*r)[0]);
          } else {
            a.response.status = r.status();
          }
          answers[c].push_back(std::move(a));
        }
      },
      check_round);
  const double peak_rss = PeakRssMb();
  const atis::storage::BufferPoolStats pool1 = built.pool->stats();
  const atis::storage::IoCounters disk_io =
      built.disk->meter().counters() - disk0;

  const double qps = MedianRate(kClients * kQueriesPerRound, round_s);
  report.attempted = round_s.size() * kClients * kQueriesPerRound;
  if (!IoSumsAgree("continent", io, disk_io)) report.correct = false;

  // Direct single-threaded stitches, for the layer's own latency.
  std::vector<double> stitch_ms;
  if (options.trace) {
    atis::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 5);
    for (size_t i = 0; i < kStitchSample; ++i) {
      const auto s = static_cast<NodeId>(rng.UniformInt(0, n_nodes - 1));
      const auto t = static_cast<NodeId>(rng.UniformInt(0, n_nodes - 1));
      Span span("partitioned_store.StitchedDistance",
                                 "layer");
      const auto t0 = Clock::now();
      if (!store.StitchedDistance(s, t).ok()) Fatal("direct stitch failed");
      stitch_ms.push_back(SecondsSince(t0) * 1e3);
    }
  }

  // The reservoir's answers against an independent Dijkstra.
  {
    auto materialized = gen->Materialize();
    if (!materialized.ok()) Fatal("materialize: " + materialized.status().ToString());
    const RefMap ref(*materialized);
    std::vector<std::string> errors(sample.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kVerifyThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (size_t i = t; i < sample.size(); i += kVerifyThreads) {
          const Answer& a = sample[i];
          const double want =
              ref.Distance(a.query.source, a.query.destination);
          // Stitching sums double costs in a different order than the
          // reference: agreement to rounding noise.
          if (std::abs(a.response.cost - want) > 1e-9 * std::max(1.0, want)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "query %d -> %d: cost %.12g, shortest %.12g",
                          a.query.source, a.query.destination,
                          a.response.cost, want);
            errors[i] = buf;
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::string& e : errors) {
      if (!e.empty() && report.correct) {
        std::fprintf(stderr, "continent: wrong answer for %s\n", e.c_str());
        report.correct = false;
      }
    }
  }

  const double n = static_cast<double>(answered);
  Values e2e{{"setup_s", Median(setup.total)},
             {"qps", qps},
             {"latency_p50_ms", Median(client_ms)},
             {"io_units_per_query", IoUnitsPerQuery(disk_io, answered)},
             {"peak_rss_mb", peak_rss}};
  Values layers{
      {"graph.generate_s", Median(setup.first)},
      {"partitioned_store.build_s", Median(setup.second)},
      {"partitioned_store.settled_store_per_query",
       static_cast<double>(settled_store) / n},
      {"partitioned_store.settled_overlay_per_query",
       static_cast<double>(settled_overlay) / n},
      {"partitioned_store.stitch_p50_ms", Median(stitch_ms)},
      {"sharded_route_server.service_p50_ms", Median(service_ms)},
      {"sharded_route_server.queue_wait_p50_ms", Median(wait_ms)},
      {"trace.qps", qps},
      {"trace.spans_per_query", static_cast<double>(traces.SpanCount()) / n},
  };
  AddIoLayers(pool0, pool1, io, n, &layers);
  Emit(options, e2e, layers, &report);
  if (traces.enabled()) traces.WriteAll(options.workdir, "continent");
  return report;
}

}  // namespace perfbench
