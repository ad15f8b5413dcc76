// Continent-scale serving benchmark: streaming build + sharded serving.
//
// Pipeline under test (the PR-10 subsystem end to end):
//   1. ContinentGenerator streams a multi-city map to an ATISG2 file —
//      nothing is ever resident.
//   2. PartitionedGraphStore::Build external-sorts the file by Hilbert
//      key through the metered DiskManager and materialises K region
//      stores one at a time, then customizes the boundary overlay.
//   3. ShardedRouteServer answers random trips in stitched mode (one A*
//      over the source and target partition stores and the in-memory
//      overlay of the others) and, as the unpartitioned baseline, in flat
//      GlobalDijkstra mode over the same store.
//
// Gates (checked by scripts/check_perf.py against a checked-in
// baseline): stitched QPS floor, stitched QPS >= the flat baseline,
// blocks/query ceiling, peak-RSS ceiling for the streaming build, and
// stitched-vs-flat exactness.
//
// Emits BENCH_continent.json (override with one positional path); --quick
// serves a ~100k-node map instead of ~1M for the CI perf smoke. --help or
// any other flag prints usage and exits 2.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sharded_route_server.h"
#include "graph/continent_generator.h"
#include "graph/partitioned_store.h"
#include "harness.h"

namespace atis::bench {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kSeed = 1993;

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "fatal: %s\n", message.c_str());
  std::abort();
}

double SecondsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A "VmHWM:" / "VmRSS:" value from /proc/self/status, in MiB (0.0 when
/// unavailable — non-Linux or restricted /proc).
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      double kb = 0.0;
      std::istringstream ss(line.substr(std::strlen(key) + 1));
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct ServingRun {
  size_t queries = 0;
  double qps = 0.0;
  double blocks_per_query = 0.0;
  double avg_settled_store = 0.0;
  double avg_settled_overlay = 0.0;
  double cross_fraction = 0.0;
};

ServingRun Serve(const graph::PartitionedGraphStore& store,
                 core::ShardedRouteServer::Mode mode, size_t num_queries,
                 uint64_t seed) {
  core::ShardedRouteServer::Options options;
  options.num_workers = 4;
  options.mode = mode;
  core::ShardedRouteServer server(&store, options);

  Rng rng(seed);
  const auto n = static_cast<int64_t>(store.num_nodes());
  std::vector<core::ShardedRouteServer::Query> queries;
  queries.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(
        {static_cast<graph::NodeId>(rng.UniformInt(0, n - 1)),
         static_cast<graph::NodeId>(rng.UniformInt(0, n - 1))});
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto responses = server.ServeBatch(queries);
  const double elapsed = SecondsSince(t0);
  if (!responses.ok()) Fatal(std::string(responses.status().message()));

  ServingRun run;
  run.queries = num_queries;
  run.qps = static_cast<double>(num_queries) / elapsed;
  uint64_t blocks = 0, settled_store = 0, settled_overlay = 0, cross = 0;
  for (const auto& resp : *responses) {
    if (!resp.status.ok()) Fatal(std::string(resp.status.message()));
    blocks += resp.io.blocks_read;
    settled_store += resp.stats.settled_source + resp.stats.settled_target;
    settled_overlay += resp.stats.settled_overlay;
    if (resp.cross_partition) ++cross;
  }
  const double nq = static_cast<double>(num_queries);
  run.blocks_per_query = static_cast<double>(blocks) / nq;
  run.avg_settled_store = static_cast<double>(settled_store) / nq;
  run.avg_settled_overlay = static_cast<double>(settled_overlay) / nq;
  run.cross_fraction = static_cast<double>(cross) / nq;
  return run;
}

void Run(const std::string& json_path, bool quick) {
  // ~100k nodes quick / ~1M nodes full. The full map is 1024 cities on a
  // 32x32 grid — the extent stays inside the store's int16 fixed-point
  // coordinate budget by construction (Create() re-validates).
  graph::ContinentOptions map_options;
  map_options.seed = kSeed;
  map_options.num_cities = quick ? 121 : 1024;
  map_options.city_k = quick ? 29 : 32;

  PrintHeader("continent",
              std::string("streaming build + sharded serving, ") +
                  (quick ? "~100k nodes (--quick)" : "~1M nodes"));

  auto gen = graph::ContinentGenerator::Create(map_options);
  if (!gen.ok()) Fatal(std::string(gen.status().message()));
  const fs::path map_path =
      fs::temp_directory_path() /
      (quick ? "atis_bench_continent_quick.atisg"
             : "atis_bench_continent.atisg");

  auto t0 = std::chrono::steady_clock::now();
  if (Status s = gen->WriteTo(map_path.string()); !s.ok()) {
    Fatal(std::string(s.message()));
  }
  const double generate_seconds = SecondsSince(t0);
  const double rss_before_build_mb = ProcStatusMb("VmHWM:");

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, quick ? 1024 : 4096, 8);
  graph::PartitionedStoreOptions build_options;
  t0 = std::chrono::steady_clock::now();
  auto store =
      graph::PartitionedGraphStore::Build(map_path.string(), &pool,
                                          build_options);
  const double build_seconds = SecondsSince(t0);
  if (!store.ok()) Fatal(std::string(store.status().message()));
  const double peak_rss_mb = ProcStatusMb("VmHWM:");
  const double current_rss_mb = ProcStatusMb("VmRSS:");

  // What the non-streaming path would have held resident *on top of the
  // store itself*: the materialised Graph (points + adjacency vectors)
  // plus ComputeNodeOrder's key/permutation arrays. Arithmetic estimate,
  // reported for scale.
  const double materialized_estimate_mb =
      (static_cast<double>((*store)->num_nodes()) *
           (sizeof(graph::Point) + 24 /* adjacency vector header */ +
            12 /* sort key + permutation entry */) +
       static_cast<double>((*store)->num_edges()) * sizeof(graph::Edge)) /
      (1024.0 * 1024.0);

  PrintRow("map", {std::to_string((*store)->num_nodes()) + " nodes",
                   std::to_string((*store)->num_edges()) + " edges",
                   std::to_string((*store)->num_partitions()) + " parts"});
  PrintRow("build", {std::to_string(build_seconds) + "s",
                     std::to_string(peak_rss_mb) + "MB peak"});

  const size_t stitched_queries = quick ? 256 : 64;
  const size_t global_queries = quick ? 32 : 4;
  const ServingRun stitched =
      Serve(**store, core::ShardedRouteServer::Mode::kStitched,
            stitched_queries, kSeed + 1);
  const ServingRun global =
      Serve(**store, core::ShardedRouteServer::Mode::kGlobalDijkstra,
            global_queries, kSeed + 1);

  PrintRow("stitched", {std::to_string(stitched.qps) + " qps",
                        std::to_string(stitched.blocks_per_query) +
                            " blocks/q"});
  PrintRow("flat", {std::to_string(global.qps) + " qps",
                    std::to_string(global.blocks_per_query) + " blocks/q"});

  // Exactness spot check: stitched == flat reference over the same store
  // (both accumulate in double, so agreement is to rounding noise).
  bool exact = true;
  {
    Rng rng(kSeed + 2);
    const auto n = static_cast<int64_t>((*store)->num_nodes());
    const int checks = quick ? 16 : 4;
    for (int i = 0; i < checks; ++i) {
      const auto s = static_cast<graph::NodeId>(rng.UniformInt(0, n - 1));
      const auto t = static_cast<graph::NodeId>(rng.UniformInt(0, n - 1));
      auto a = (*store)->StitchedDistance(s, t);
      auto b = (*store)->GlobalDijkstra(s, t);
      if (!a.ok() || !b.ok()) Fatal("exactness probe failed");
      if (a->found != b->found ||
          (a->found && std::abs(a->cost - b->cost) > 1e-9)) {
        std::fprintf(stderr, "INEXACT %d -> %d: stitched %.12f flat %.12f\n",
                     s, t, a->cost, b->cost);
        exact = false;
      }
    }
  }

  const double qps_ratio = stitched.qps / global.qps;
  const bool pass = exact && qps_ratio >= 1.0;
  PrintRow("gates", {"ratio " + std::to_string(qps_ratio),
                     exact ? "exact" : "INEXACT",
                     pass ? "pass" : "FAIL"});

  JsonWriter w;
  BeginBenchJson(w, "continent");
  w.Field("quick", quick);
  w.Key("map").BeginObject();
  w.Field("num_cities", map_options.num_cities);
  w.Field("city_k", map_options.city_k);
  w.Field("nodes", (*store)->num_nodes());
  w.Field("edges", (*store)->num_edges());
  w.Field("partitions", static_cast<uint64_t>((*store)->num_partitions()));
  w.Field("boundary_nodes",
          static_cast<uint64_t>((*store)->num_boundary_nodes()));
  w.Field("cross_edges", static_cast<uint64_t>((*store)->num_cross_edges()));
  w.EndObject();
  w.Key("build").BeginObject();
  w.Field("generate_seconds", generate_seconds);
  w.Field("build_seconds", build_seconds);
  w.Field("peak_rss_mb_before_build", rss_before_build_mb);
  w.Field("peak_rss_mb", peak_rss_mb);
  w.Field("final_rss_mb", current_rss_mb);
  w.Field("materialized_overhead_estimate_mb", materialized_estimate_mb);
  w.EndObject();
  auto emit_serving = [&w](const char* key, const ServingRun& run) {
    w.Key(key).BeginObject();
    w.Field("queries", static_cast<uint64_t>(run.queries));
    w.Field("qps", run.qps);
    w.Field("blocks_per_query", run.blocks_per_query);
    w.Field("avg_settled_store", run.avg_settled_store);
    w.Field("avg_settled_overlay", run.avg_settled_overlay);
    w.Field("cross_fraction", run.cross_fraction);
    w.EndObject();
  };
  emit_serving("stitched", stitched);
  emit_serving("flat_baseline", global);
  w.Key("gates").BeginObject();
  w.Field("stitched_qps", stitched.qps);
  w.Field("qps_ratio_stitched_over_flat", qps_ratio);
  w.Field("blocks_per_query", stitched.blocks_per_query);
  w.Field("peak_rss_mb", peak_rss_mb);
  w.Field("exact", exact);
  w.Field("pass", pass);
  w.EndObject();
  FinishBenchFile(w, json_path);

  std::error_code ec;
  fs::remove(map_path, ec);
  if (!pass) std::exit(1);
}

}  // namespace
}  // namespace atis::bench

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_continent.json";
  bool have_path = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("-", 0) != 0 && !have_path) {
      json_path = arg;
      have_path = true;
    } else {
      // --help, an unknown flag or a second path: refuse before any work.
      std::fprintf(stderr,
                   "usage: %s [OUTPUT.json] [--quick]\n"
                   "  OUTPUT.json  result file (default BENCH_continent.json)\n"
                   "  --quick      ~100k-node map instead of ~1M\n",
                   argv[0]);
      return 2;
    }
  }
  atis::bench::Run(json_path, quick);
  return 0;
}
