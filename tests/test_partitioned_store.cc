#include "graph/partitioned_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/db_search.h"
#include "core/sharded_route_server.h"
#include "graph/continent_generator.h"
#include "graph/graph_io.h"
#include "util/random.h"

namespace atis::graph {
namespace {

using core::DbSearchEngine;
using core::ShardedRouteServer;
using storage::BufferPool;
using storage::DiskManager;

/// Tolerance for comparing against DbSearchEngine: the paper engine
/// writes its running path cost back into R's float32 path_cost field at
/// every relaxation, rounding each prefix sum, while the partitioned
/// paths accumulate in double. The drift is bounded by a few float ulps
/// per relaxed edge — far below any wrong-path difference (a whole edge
/// cost).
double RefTolerance(double cost) { return 1e-5 * (1.0 + cost); }

/// A multi-city map small enough for a single-store reference load.
std::string WriteTestMap(int num_cities, int city_k, const char* tag) {
  ContinentOptions options;
  options.num_cities = num_cities;
  options.city_k = city_k;
  auto gen = ContinentGenerator::Create(options);
  EXPECT_TRUE(gen.ok());
  const std::string path =
      ::testing::TempDir() + "/atis_partition_" + tag + ".atisg";
  EXPECT_TRUE(gen->WriteTo(path).ok());
  return path;
}

class PartitionedStoreTest : public ::testing::Test {
 protected:
  PartitionedStoreTest() : pool_(&disk_, 512, 4) {}

  std::unique_ptr<PartitionedGraphStore> BuildStore(
      const std::string& path, size_t max_partition_nodes) {
    PartitionedStoreOptions options;
    options.max_partition_nodes = max_partition_nodes;
    options.sort_budget_bytes = 1 << 12;  // force spilled runs
    auto store = PartitionedGraphStore::Build(path, &pool_, options);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return std::move(*store);
  }

  DiskManager disk_;
  BufferPool pool_;
};

TEST_F(PartitionedStoreTest, BuildSplitsIntoBoundedPartitions) {
  const std::string path = WriteTestMap(4, 8, "split");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->num_nodes(), 256u);
  EXPECT_GE(store->num_partitions(), 3u);
  for (size_t p = 0; p < store->num_partitions(); ++p) {
    EXPECT_LE(store->partition_num_owned(p), 100u);
    EXPECT_GE(store->partition_num_owned(p), 1u);
  }
  size_t owned_total = 0;
  for (size_t p = 0; p < store->num_partitions(); ++p) {
    owned_total += store->partition_num_owned(p);
  }
  EXPECT_EQ(owned_total, store->num_nodes());
  EXPECT_GT(store->num_cross_edges(), 0u);
  EXPECT_GT(store->num_boundary_nodes(), 0u);
}

TEST_F(PartitionedStoreTest, FetchAdjacencyMatchesTheSourceGraph) {
  ContinentOptions options;
  options.num_cities = 4;
  options.city_k = 8;
  auto gen = ContinentGenerator::Create(options);
  ASSERT_TRUE(gen.ok());
  const std::string path = WriteTestMap(4, 8, "adjacency");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);
  auto g = gen->Materialize();
  ASSERT_TRUE(g.ok());
  for (NodeId u = 0; u < static_cast<NodeId>(g->num_nodes()); ++u) {
    auto rows = store->FetchAdjacency(u);
    ASSERT_TRUE(rows.ok()) << rows.status().message();
    ASSERT_EQ(rows->size(), g->OutDegree(u));
    // Same edge set (order may differ from the source graph: the store
    // serves its Hilbert-clustered insertion order).
    std::vector<std::pair<NodeId, float>> got, want;
    for (const auto& row : *rows) {
      EXPECT_EQ(row.begin, u);
      got.emplace_back(row.end, static_cast<float>(row.cost));
    }
    for (const Edge& e : g->Neighbors(u)) {
      want.emplace_back(e.to, static_cast<float>(e.cost));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST_F(PartitionedStoreTest, StitchedDistanceIsExact) {
  const std::string path = WriteTestMap(4, 8, "exact");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);

  // Single-store reference over the same file: float-rounded costs, the
  // same metric the partition stores serve.
  DiskManager ref_disk;
  BufferPool ref_pool(&ref_disk, 512);
  RelationalGraphStore ref_store(&ref_pool);
  ASSERT_TRUE(ref_store.LoadStreaming(path).ok());
  DbSearchEngine ref_engine(&ref_store, &ref_pool);

  Rng rng(7);
  const NodeId n = static_cast<NodeId>(store->num_nodes());
  size_t cross_seen = 0;
  for (int i = 0; i < 40; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    PartitionedGraphStore::QueryStats stats;
    auto stitched = store->StitchedDistance(s, t, &stats);
    ASSERT_TRUE(stitched.ok()) << stitched.status().message();
    auto ref = ref_engine.Dijkstra(s, t);
    ASSERT_TRUE(ref.ok()) << ref.status().message();
    ASSERT_EQ(stitched->found, ref->found) << s << " -> " << t;
    if (ref->found) {
      EXPECT_NEAR(stitched->cost, ref->cost, RefTolerance(ref->cost))
          << s << " -> " << t;
      // The flat double-accumulation reference over the same store must
      // agree to full precision — stitching itself introduces no error.
      auto flat = store->GlobalDijkstra(s, t);
      ASSERT_TRUE(flat.ok());
      EXPECT_NEAR(stitched->cost, flat->cost, 1e-9) << s << " -> " << t;
    }
    if (stats.cross_partition) ++cross_seen;
    EXPECT_EQ(stats.cross_partition,
              store->PartitionOf(s) != store->PartitionOf(t));
  }
  // The map has >= 3 partitions; random pairs must exercise the stitch.
  EXPECT_GT(cross_seen, 0u);
}

TEST_F(PartitionedStoreTest, GlobalDijkstraAgreesWithStitched) {
  const std::string path = WriteTestMap(3, 7, "global");
  auto store = BuildStore(path, 60);
  ASSERT_NE(store, nullptr);
  Rng rng(11);
  const NodeId n = static_cast<NodeId>(store->num_nodes());
  for (int i = 0; i < 25; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    const NodeId t = static_cast<NodeId>(rng.UniformInt(0, n - 1));
    auto stitched = store->StitchedDistance(s, t);
    auto flat = store->GlobalDijkstra(s, t);
    ASSERT_TRUE(stitched.ok());
    ASSERT_TRUE(flat.ok());
    ASSERT_EQ(stitched->found, flat->found);
    if (flat->found) {
      EXPECT_NEAR(stitched->cost, flat->cost, 1e-9);
    }
  }
}

TEST_F(PartitionedStoreTest, SameNodeAndInvalidQueries) {
  const std::string path = WriteTestMap(2, 6, "degenerate");
  auto store = BuildStore(path, 50);
  ASSERT_NE(store, nullptr);
  auto same = store->StitchedDistance(5, 5);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->found);
  EXPECT_EQ(same->cost, 0.0);
  EXPECT_EQ(store
                ->StitchedDistance(
                    0, static_cast<NodeId>(store->num_nodes()))
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->StitchedDistance(-1, 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(store->PartitionOf(-1), -1);
}

TEST_F(PartitionedStoreTest, ShardedServerServesExactAnswers) {
  const std::string path = WriteTestMap(4, 8, "server");
  auto store = BuildStore(path, 100);
  ASSERT_NE(store, nullptr);

  DiskManager ref_disk;
  BufferPool ref_pool(&ref_disk, 512);
  RelationalGraphStore ref_store(&ref_pool);
  ASSERT_TRUE(ref_store.LoadStreaming(path).ok());
  DbSearchEngine ref_engine(&ref_store, &ref_pool);

  ShardedRouteServer::Options options;
  options.num_workers = 3;
  ShardedRouteServer server(store.get(), options);
  EXPECT_GE(server.num_groups(), 1u);
  EXPECT_LE(server.num_groups(), 3u);

  Rng rng(23);
  const NodeId n = static_cast<NodeId>(store->num_nodes());
  std::vector<ShardedRouteServer::Query> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back({static_cast<NodeId>(rng.UniformInt(0, n - 1)),
                       static_cast<NodeId>(rng.UniformInt(0, n - 1))});
  }
  auto responses = server.ServeBatch(queries);
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& resp = (*responses)[i];
    EXPECT_EQ(resp.query_index, i);
    ASSERT_TRUE(resp.status.ok()) << resp.status.message();
    auto ref = ref_engine.Dijkstra(queries[i].source,
                                   queries[i].destination);
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(resp.found, ref->found);
    if (ref->found) {
      EXPECT_NEAR(resp.cost, ref->cost, RefTolerance(ref->cost));
    }
    EXPECT_GE(resp.group, 0);
  }
  EXPECT_EQ(server.queries_served(), queries.size());
}

TEST_F(PartitionedStoreTest, ShardedServerGlobalModeAndNoAffinity) {
  const std::string path = WriteTestMap(3, 6, "modes");
  auto store = BuildStore(path, 50);
  ASSERT_NE(store, nullptr);
  ShardedRouteServer::Options options;
  options.num_workers = 2;
  options.partition_affinity = false;
  options.mode = ShardedRouteServer::Mode::kGlobalDijkstra;
  ShardedRouteServer server(store.get(), options);
  std::vector<ShardedRouteServer::Query> queries = {{0, 50}, {50, 0},
                                                    {10, 10}};
  auto responses = server.ServeBatch(queries);
  ASSERT_TRUE(responses.ok());
  for (const auto& resp : *responses) {
    ASSERT_TRUE(resp.status.ok());
    EXPECT_TRUE(resp.found);
  }
  auto ref = store->GlobalDijkstra(0, 50);
  ASSERT_TRUE(ref.ok());
  EXPECT_NEAR((*responses)[0].cost, ref->cost, 1e-12);
}

/// Four 2 x 2 clusters near the corners of a 100 x 100 square, far
/// enough apart that each becomes its own partition under
/// max_partition_nodes = 5 (the Hilbert curve visits the corners in the
/// order A = (0,0), B = (0,100), C = (100,100), D = (100,0)). Cluster c's
/// nodes are 4c .. 4c+3; callers add the edges.
Graph FourClusterMap() {
  Graph g;
  const double corners[4][2] = {{0, 0}, {0, 100}, {100, 100}, {100, 0}};
  for (const auto& c : corners) {
    g.AddNode(c[0], c[1]);
    g.AddNode(c[0] + 1, c[1]);
    g.AddNode(c[0], c[1] + 1);
    g.AddNode(c[0] + 1, c[1] + 1);
  }
  return g;
}

std::string SaveMap(const Graph& g, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/atis_partition_" + tag + ".atisg";
  EXPECT_TRUE(SaveGraphFile(g, path).ok());
  return path;
}

/// Every ordered pair against the flat reference, within 1e-9.
void ExpectAllPairsExact(const PartitionedGraphStore& store) {
  const NodeId n = static_cast<NodeId>(store.num_nodes());
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      auto stitched = store.StitchedDistance(s, t);
      auto flat = store.GlobalDijkstra(s, t);
      ASSERT_TRUE(stitched.ok()) << stitched.status().message();
      ASSERT_TRUE(flat.ok()) << flat.status().message();
      ASSERT_EQ(stitched->found, flat->found) << s << " -> " << t;
      if (flat->found) {
        EXPECT_NEAR(stitched->cost, flat->cost, 1e-9) << s << " -> " << t;
      }
    }
  }
}

/// A zero-cost edge between distinct points makes v_max unbounded, so the
/// potential must fall back to 0. Had the edge been left out of v_max
/// (v_max = 5/3 from s -> v), the potential at v would be 6 > d(v, t) = 1
/// and the search would stop at the direct s -> t edge (cost 5) instead of
/// s -> v -> w -> t (cost 4).
TEST_F(PartitionedStoreTest, ZeroCostEdgeFallsBackToDijkstra) {
  Graph g;
  const NodeId s = g.AddNode(5, 0);
  const NodeId v = g.AddNode(0, 0);
  const NodeId w = g.AddNode(9, 0);
  const NodeId t = g.AddNode(10, 0);
  ASSERT_TRUE(g.AddEdge(s, t, 5.0).ok());
  ASSERT_TRUE(g.AddEdge(s, v, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(v, w, 0.0).ok());
  ASSERT_TRUE(g.AddEdge(w, t, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(t, s, 5.0).ok());
  const std::string path = SaveMap(g, "zero_cost");
  // One partition, and one node per partition (the stitch then runs
  // through overlay nodes).
  for (const size_t max_nodes : {100u, 2u}) {
    auto store = BuildStore(path, max_nodes);
    ASSERT_NE(store, nullptr);
    auto stitched = store->StitchedDistance(s, t);
    ASSERT_TRUE(stitched.ok());
    ASSERT_TRUE(stitched->found);
    EXPECT_NEAR(stitched->cost, 4.0, 1e-12);
    ExpectAllPairsExact(*store);
  }
}

/// Both endpoints in one partition, with the shortest path leaving it and
/// re-entering: the target's store labels must be reachable from
/// overlay and ghost labels, not only from the source's own store.
TEST_F(PartitionedStoreTest, SamePartitionPathLeavesAndReenters) {
  Graph g = FourClusterMap();
  // Cluster A: the direct in-partition route 0 -> 1 costs 500.
  ASSERT_TRUE(g.AddEdge(0, 1, 500.0).ok());
  // The detour through cluster B: 0 -> 4 -> 5 -> 1 costs 300.
  ASSERT_TRUE(g.AddEdge(0, 4, 100.0).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 100.0).ok());
  ASSERT_TRUE(g.AddEdge(5, 1, 100.0).ok());
  auto store = BuildStore(SaveMap(g, "reenter"), 5);
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->PartitionOf(0), store->PartitionOf(1));
  ASSERT_NE(store->PartitionOf(0), store->PartitionOf(4));
  PartitionedGraphStore::QueryStats stats;
  auto stitched = store->StitchedDistance(0, 1, &stats);
  ASSERT_TRUE(stitched.ok());
  ASSERT_TRUE(stitched->found);
  EXPECT_FALSE(stats.cross_partition);
  EXPECT_NEAR(stitched->cost, 300.0, 1e-9);
  EXPECT_GT(stats.settled_overlay, 0u);
  ExpectAllPairsExact(*store);
}

/// A cross-partition path through a third partition, which the query
/// graph holds only as overlay nodes and customized entry -> exit arcs.
TEST_F(PartitionedStoreTest, PathCrossesAThirdPartitionOnItsOverlay) {
  Graph g = FourClusterMap();
  // A -> B (enter at 4), through B 4 -> 6 -> 7 -> 5, B -> C (leave at 5).
  ASSERT_TRUE(g.AddEdge(1, 4, 100.0).ok());
  ASSERT_TRUE(g.AddEdge(4, 6, 2.0).ok());
  ASSERT_TRUE(g.AddEdge(6, 7, 3.0).ok());
  ASSERT_TRUE(g.AddEdge(7, 5, 4.0).ok());
  ASSERT_TRUE(g.AddEdge(4, 5, 50.0).ok());  // a dearer in-B shortcut
  ASSERT_TRUE(g.AddEdge(5, 8, 100.0).ok());
  // Inside A and C.
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(8, 11, 1.5).ok());
  auto store = BuildStore(SaveMap(g, "third"), 5);
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->num_partitions(), 4u);
  const int pa = store->PartitionOf(0);
  const int pb = store->PartitionOf(4);
  const int pc = store->PartitionOf(8);
  ASSERT_NE(pa, pb);
  ASSERT_NE(pb, pc);
  ASSERT_NE(pa, pc);
  PartitionedGraphStore::QueryStats stats;
  auto stitched = store->StitchedDistance(0, 11, &stats);
  ASSERT_TRUE(stitched.ok());
  ASSERT_TRUE(stitched->found);
  EXPECT_NEAR(stitched->cost, 1.0 + 100.0 + 9.0 + 100.0 + 1.5, 1e-9);
  // B is crossed on its entry and exit overlay nodes alone; only A's and
  // C's stores are searched.
  EXPECT_EQ(stats.settled_overlay, 2u);
  EXPECT_LE(stats.settled_source, store->partition_num_owned(pa));
  EXPECT_LE(stats.settled_target, store->partition_num_owned(pc));
  ExpectAllPairsExact(*store);
}

/// Regression guard for the goal-directed stop: a query between adjacent
/// nodes settles a small fraction of its partition, not all of it.
TEST_F(PartitionedStoreTest, AdjacentQuerySettlesFewStoreNodes) {
  const std::string path = WriteTestMap(4, 12, "adjacent");
  auto store = BuildStore(path, 800);
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->num_partitions(), 1u);
  const size_t owned = store->partition_num_owned(0);
  ASSERT_GE(owned, 500u);
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const NodeId s = static_cast<NodeId>(
        rng.UniformInt(0, static_cast<int64_t>(store->num_nodes()) - 1));
    auto rows = store->FetchAdjacency(s);
    ASSERT_TRUE(rows.ok());
    ASSERT_FALSE(rows->empty());
    const NodeId t = rows->front().end;
    PartitionedGraphStore::QueryStats stats;
    auto stitched = store->StitchedDistance(s, t, &stats);
    ASSERT_TRUE(stitched.ok());
    ASSERT_TRUE(stitched->found);
    auto flat = store->GlobalDijkstra(s, t);
    ASSERT_TRUE(flat.ok());
    EXPECT_NEAR(stitched->cost, flat->cost, 1e-9);
    EXPECT_LT(stats.settled_source + stats.settled_target, owned / 10)
        << s << " -> " << t;
  }
}

/// Costs that do not fit the store's 4-byte float are refused at build
/// time, naming the edge, instead of being stored as inf.
TEST_F(PartitionedStoreTest, BuildRejectsCostsBeyondFloatRange) {
  Graph g = FourClusterMap();
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 4, 1e39).ok());
  auto store = PartitionedGraphStore::Build(SaveMap(g, "overflow"), &pool_,
                                            {});
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(store.status().message().find("1 -> 4"), std::string::npos)
      << store.status().message();
}

TEST_F(PartitionedStoreTest, EmptyMapBuildsZeroPartitions) {
  ContinentOptions options;
  options.num_cities = 0;
  auto gen = ContinentGenerator::Create(options);
  ASSERT_TRUE(gen.ok());
  const std::string path = ::testing::TempDir() + "/atis_partition_empty.atisg";
  ASSERT_TRUE(gen->WriteTo(path).ok());
  auto store = PartitionedGraphStore::Build(path, &pool_, {});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->num_partitions(), 0u);
  EXPECT_EQ((*store)->StitchedDistance(0, 0).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace atis::graph
