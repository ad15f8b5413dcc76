#include "graph/partitioned_store.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <queue>
#include <thread>
#include <unordered_map>
#include <utility>

#include "graph/graph_io.h"
#include "graph/spatial_layout.h"
#include "storage/spill_sort.h"

namespace atis::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// External-sort record for nodes: Hilbert key, original id, coordinates.
struct BuildNodeRecord {
  uint64_t key;
  NodeId id;
  double x;
  double y;
};

/// Rank-ordered node spill record (re-read per partition range, and
/// randomly for ghost coordinates).
struct RankedNodeRecord {
  NodeId id;
  double x;
  double y;
};

/// External-sort record for edges, keyed by the begin node's rank.
struct BuildEdgeRecord {
  uint64_t key;
  NodeId u;
  NodeId v;
  double cost;
};

/// Rank-ordered edge spill record; partition ranges are contiguous.
struct SortedEdgeRecord {
  NodeId u;
  NodeId v;
  double cost;
};

using FloatPoint = PartitionedGraphStore::FloatPoint;

FloatPoint ToFloatPoint(const RankedNodeRecord& rec) {
  return FloatPoint{static_cast<float>(rec.x), static_cast<float>(rec.y)};
}

/// The one Euclidean distance both v_max and the A* potential use, so
/// they round identically.
double Euclid(const FloatPoint& a, const FloatPoint& b) {
  const double dx = static_cast<double>(a.x) - static_cast<double>(b.x);
  const double dy = static_cast<double>(a.y) - static_cast<double>(b.y);
  return std::sqrt(dx * dx + dy * dy);
}

/// Binary min-heap entry for the in-memory Dijkstras.
struct HeapEntry {
  double dist;
  uint32_t node;
  bool operator>(const HeapEntry& o) const { return dist > o.dist; }
};
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>;

/// A* heap entry: ordered by key = dist + potential.
struct AStarEntry {
  double key;
  double dist;
  uint32_t label;
  bool operator>(const AStarEntry& o) const { return key > o.key; }
};

}  // namespace

int PartitionedGraphStore::PartitionOf(NodeId global) const {
  if (global < 0 || static_cast<size_t>(global) >= global_map_.size()) {
    return -1;
  }
  const uint32_t p = packed(global);
  if (p == kUnmapped) return -1;
  return static_cast<int>(p >> 16);
}

Result<std::unique_ptr<PartitionedGraphStore>> PartitionedGraphStore::Build(
    const std::string& path, storage::BufferPool* pool,
    const PartitionedStoreOptions& options) {
  if (options.max_partition_nodes < 2 ||
      options.max_partition_nodes > 32767) {
    return Status::InvalidArgument(
        "max_partition_nodes must be in [2, 32767]");
  }
  auto store = std::unique_ptr<PartitionedGraphStore>(
      new PartitionedGraphStore());
  storage::DiskManager* disk = pool->disk();

  // Pass 1: node-section scan for the global bounding box.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader pass1,
                        StreamingGraphReader::Open(path));
  const uint64_t n64 = pass1.num_nodes();
  if (n64 > static_cast<uint64_t>(std::numeric_limits<NodeId>::max())) {
    return Status::InvalidArgument("node count exceeds NodeId range");
  }
  const size_t n = static_cast<size_t>(n64);
  store->num_nodes_ = n64;
  double min_x = kInf;
  double min_y = kInf;
  double max_x = -kInf;
  double max_y = -kInf;
  for (size_t u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(pass1.NextNode(&rec));
    min_x = std::min(min_x, rec.x);
    min_y = std::min(min_y, rec.y);
    max_x = std::max(max_x, rec.x);
    max_y = std::max(max_y, rec.y);
  }
  if (n == 0) {
    return store;  // empty map: zero partitions, every query NotFound
  }
  const HilbertKeyMapper mapper =
      HilbertKeyMapper::FromBounds(min_x, min_y, max_x, max_y);

  // Pass 2: external-sort node tuples by (Hilbert key, id), then stream
  // the sorted order out into rank structures and the node spill. The
  // same reader handle continues into the edge section afterwards.
  ATIS_ASSIGN_OR_RETURN(StreamingGraphReader reader,
                        StreamingGraphReader::Open(path));
  storage::SpillSorter<BuildNodeRecord> node_sorter(
      disk, options.sort_budget_bytes);
  for (size_t u = 0; u < n; ++u) {
    StreamingGraphReader::NodeRecord rec;
    ATIS_RETURN_NOT_OK(reader.NextNode(&rec));
    ATIS_RETURN_NOT_OK(node_sorter.Add(BuildNodeRecord{
        mapper.Key(rec.x, rec.y), static_cast<NodeId>(u), rec.x, rec.y}));
  }
  ATIS_RETURN_NOT_OK(node_sorter.Finish());

  std::vector<NodeId> rank_of(n, kInvalidNode);
  std::vector<uint64_t> keys(n);  // rank-ordered; freed after the cuts
  storage::SpillFile<RankedNodeRecord> node_spill(disk);
  {
    BuildNodeRecord rec{};
    NodeId rank = 0;
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, node_sorter.Next(&rec));
      if (!more) break;
      rank_of[static_cast<size_t>(rec.id)] = rank;
      keys[static_cast<size_t>(rank)] = rec.key;
      ATIS_RETURN_NOT_OK(
          node_spill.Append(RankedNodeRecord{rec.id, rec.x, rec.y}));
      ++rank;
    }
    ATIS_RETURN_NOT_OK(node_spill.Finish());
  }

  // Partition cuts: equal-count positions snapped to the largest key gap
  // within the window. The 0.8 slack keeps a snapped cut from pushing a
  // partition past max_partition_nodes.
  const size_t effective_max =
      std::max<size_t>(1, options.max_partition_nodes * 8 / 10);
  const size_t num_parts = (n + effective_max - 1) / effective_max;
  if (num_parts > 65535) {
    return Status::InvalidArgument("too many partitions (max 65535)");
  }
  std::vector<size_t> cut;
  cut.reserve(num_parts + 1);
  cut.push_back(0);
  const size_t part_span = n / num_parts;
  const size_t window = std::max<size_t>(
      1, static_cast<size_t>(options.gap_window *
                             static_cast<double>(part_span)));
  for (size_t p = 1; p < num_parts; ++p) {
    const size_t target = p * n / num_parts;
    const size_t lo = std::max(cut.back() + 1,
                               target > window ? target - window : 1);
    const size_t hi = std::min(n - 1, target + window);
    size_t best = std::max(lo, std::min(target, hi));
    uint64_t best_gap = 0;
    for (size_t r = lo; r <= hi && r < n; ++r) {
      const uint64_t gap = keys[r] - keys[r - 1];
      if (gap > best_gap) {
        best_gap = gap;
        best = r;
      }
    }
    cut.push_back(best);
  }
  cut.push_back(n);
  keys.clear();
  keys.shrink_to_fit();

  const size_t num_partitions = cut.size() - 1;
  store->global_map_.assign(n, kUnmapped);
  {
    // rank -> partition via the cuts; then id -> packed(partition, local).
    std::vector<uint16_t> part_of_rank(n);
    for (size_t p = 0; p < num_partitions; ++p) {
      for (size_t r = cut[p]; r < cut[p + 1]; ++r) {
        part_of_rank[r] = static_cast<uint16_t>(p);
      }
    }
    for (size_t id = 0; id < n; ++id) {
      const size_t r = static_cast<size_t>(rank_of[id]);
      const uint32_t p = part_of_rank[r];
      const uint32_t local = static_cast<uint32_t>(r - cut[p]);
      store->global_map_[id] = (p << 16) | local;
    }
  }

  // Edge pass: sort by begin rank, spill in sorted order, and record the
  // contiguous per-partition edge ranges plus every cross edge.
  ATIS_RETURN_NOT_OK(reader.BeginEdges());
  store->num_edges_ = reader.num_edges();
  storage::SpillSorter<BuildEdgeRecord> edge_sorter(
      disk, options.sort_budget_bytes);
  for (uint64_t i = 0; i < store->num_edges_; ++i) {
    StreamingGraphReader::EdgeRecord e;
    ATIS_RETURN_NOT_OK(reader.NextEdge(&e));
    if (e.u < 0 || static_cast<size_t>(e.u) >= n || e.v < 0 ||
        static_cast<size_t>(e.v) >= n) {
      return Status::Corruption("edge endpoint out of range in " + path);
    }
    ATIS_RETURN_NOT_OK(CheckStoreCost(e.u, e.v, e.cost));
    ATIS_RETURN_NOT_OK(edge_sorter.Add(BuildEdgeRecord{
        static_cast<uint64_t>(rank_of[static_cast<size_t>(e.u)]), e.u, e.v,
        e.cost}));
  }
  ATIS_RETURN_NOT_OK(edge_sorter.Finish());

  storage::SpillFile<SortedEdgeRecord> edge_spill(disk);
  std::vector<size_t> edge_begin(num_partitions + 1, 0);
  struct CrossEdge {
    NodeId u;
    NodeId v;
    double cost;
  };
  std::vector<CrossEdge> cross_edges;
  std::vector<std::vector<uint32_t>> cross_of(num_partitions);
  {
    BuildEdgeRecord rec{};
    size_t index = 0;
    size_t current_part = 0;
    while (true) {
      ATIS_ASSIGN_OR_RETURN(bool more, edge_sorter.Next(&rec));
      if (!more) break;
      const uint32_t pu = store->global_map_[static_cast<size_t>(rec.u)];
      const uint32_t pv = store->global_map_[static_cast<size_t>(rec.v)];
      const size_t part_u = pu >> 16;
      while (current_part < part_u) edge_begin[++current_part] = index;
      if ((pv >> 16) != part_u) {
        cross_of[part_u].push_back(static_cast<uint32_t>(cross_edges.size()));
        cross_edges.push_back(CrossEdge{rec.u, rec.v, rec.cost});
      }
      ATIS_RETURN_NOT_OK(
          edge_spill.Append(SortedEdgeRecord{rec.u, rec.v, rec.cost}));
      ++index;
    }
    while (current_part < num_partitions) edge_begin[++current_part] = index;
    ATIS_RETURN_NOT_OK(edge_spill.Finish());
  }
  store->num_cross_edges_ = cross_edges.size();

  // Materialise the partitions one at a time. Ghost nodes (remote cross-
  // edge targets) are appended after the owned range so an edge leaving
  // the partition still has an in-store endpoint to point at. Every edge
  // lies in its begin node's range, so this loop also sees each edge once
  // for v_max, the fastest Euclidean speed of the map.
  double v_max = 0.0;
  bool free_edge = false;  // positive length at zero cost: no potential
  store->partitions_.resize(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    Partition& part = store->partitions_[p];
    part.num_owned = static_cast<uint32_t>(cut[p + 1] - cut[p]);
    Graph g;
    part.local_to_global.reserve(part.num_owned + cross_of[p].size());
    part.xy.reserve(part.num_owned + cross_of[p].size());
    ATIS_RETURN_NOT_OK(node_spill.ReadRange(
        cut[p], cut[p + 1], [&](size_t, const RankedNodeRecord& rec) {
          g.AddNode(rec.x, rec.y);
          part.local_to_global.push_back(rec.id);
          part.xy.push_back(ToFloatPoint(rec));
        }));
    std::unordered_map<NodeId, NodeId> ghost_local;
    ghost_local.reserve(cross_of[p].size());
    for (const uint32_t ci : cross_of[p]) {
      const NodeId v = cross_edges[static_cast<size_t>(ci)].v;
      if (ghost_local.count(v) != 0) continue;
      ATIS_ASSIGN_OR_RETURN(
          RankedNodeRecord rec,
          node_spill.Read(static_cast<size_t>(
              rank_of[static_cast<size_t>(v)])));
      const NodeId local = g.AddNode(rec.x, rec.y);
      ghost_local.emplace(v, local);
      part.local_to_global.push_back(v);
      part.xy.push_back(ToFloatPoint(rec));
    }
    if (g.num_nodes() > 32767) {
      return Status::Internal(
          "partition plus ghosts exceeds the 32767-node store cap");
    }
    Status add_status = Status::OK();
    ATIS_RETURN_NOT_OK(edge_spill.ReadRange(
        edge_begin[p], edge_begin[p + 1],
        [&](size_t, const SortedEdgeRecord& rec) {
          if (!add_status.ok()) return;
          const uint32_t pu = store->global_map_[static_cast<size_t>(rec.u)];
          const uint32_t pv = store->global_map_[static_cast<size_t>(rec.v)];
          const NodeId lu = static_cast<NodeId>(pu & 0xFFFF);
          const NodeId lv = (pv >> 16) == p
                                ? static_cast<NodeId>(pv & 0xFFFF)
                                : ghost_local.at(rec.v);
          add_status = g.AddEdge(lu, lv, rec.cost);
          const double length = Euclid(part.xy[static_cast<size_t>(lu)],
                                       part.xy[static_cast<size_t>(lv)]);
          if (length > 0.0) {
            const double cost = StoreCost(rec.cost);
            if (cost > 0.0) {
              v_max = std::max(v_max, length / cost);
            } else {
              free_edge = true;
            }
          }
        }));
    ATIS_RETURN_NOT_OK(add_status);
    part.store = std::make_unique<RelationalGraphStore>(pool);
    RelationalGraphStore::LoadOptions load_options;
    load_options.layout = StoreLayout::kHilbert;
    ATIS_RETURN_NOT_OK(part.store->Load(g, load_options));
  }
  node_spill.Clear();
  if (!free_edge && v_max > 0.0) {
    store->potential_scale_ = 1.0 / (v_max * (1.0 + 1e-9));
  }

  // Boundary sets: exits = cross-edge sources of p, entries = cross-edge
  // targets owned by p.
  for (const CrossEdge& ce : cross_edges) {
    const uint32_t pu = store->global_map_[static_cast<size_t>(ce.u)];
    const uint32_t pv = store->global_map_[static_cast<size_t>(ce.v)];
    store->partitions_[pu >> 16].exits.push_back(ce.u);
    store->partitions_[pv >> 16].entries.push_back(ce.v);
  }
  for (Partition& part : store->partitions_) {
    auto dedup = [](std::vector<NodeId>* v) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    };
    dedup(&part.entries);
    dedup(&part.exits);
  }

  // Customization: per partition, within-partition shortest costs from
  // every entry to every exit, over an in-memory CSR built from the edge
  // spill with store-rounded costs. Partitions are independent, so the
  // loop fans out across threads (the spill reads go through the
  // thread-safe DiskManager).
  {
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned num_threads = static_cast<unsigned>(std::min<size_t>(
        options.customize_threads == 0 ? hw : options.customize_threads,
        num_partitions));
    std::atomic<size_t> next{0};
    std::vector<Status> thread_status(num_threads, Status::OK());
    auto customize_one = [&](size_t p) -> Status {
      Partition& part = store->partitions_[p];
      if (part.entries.empty() || part.exits.empty()) return Status::OK();
      const size_t owned = part.num_owned;
      // Intra-partition CSR over owned local ids.
      std::vector<std::vector<std::pair<uint32_t, double>>> adj(owned);
      ATIS_RETURN_NOT_OK(edge_spill.ReadRange(
          edge_begin[p], edge_begin[p + 1],
          [&](size_t, const SortedEdgeRecord& rec) {
            const uint32_t pv =
                store->global_map_[static_cast<size_t>(rec.v)];
            if ((pv >> 16) != p) return;  // leaves the partition
            const uint32_t pu =
                store->global_map_[static_cast<size_t>(rec.u)];
            adj[pu & 0xFFFF].emplace_back(pv & 0xFFFF,
                                          StoreCost(rec.cost));
          }));
      part.entry_exit_cost.assign(part.entries.size() * part.exits.size(),
                                  kInf);
      std::vector<double> dist(owned);
      for (size_t ei = 0; ei < part.entries.size(); ++ei) {
        const uint32_t source =
            store->global_map_[static_cast<size_t>(part.entries[ei])] &
            0xFFFF;
        std::fill(dist.begin(), dist.end(), kInf);
        dist[source] = 0.0;
        MinHeap heap;
        heap.push(HeapEntry{0.0, source});
        while (!heap.empty()) {
          const HeapEntry top = heap.top();
          heap.pop();
          if (top.dist > dist[top.node]) continue;
          for (const auto& [to, cost] : adj[top.node]) {
            const double nd = top.dist + cost;
            if (nd < dist[to]) {
              dist[to] = nd;
              heap.push(HeapEntry{nd, to});
            }
          }
        }
        for (size_t xi = 0; xi < part.exits.size(); ++xi) {
          const uint32_t exit_local =
              store->global_map_[static_cast<size_t>(part.exits[xi])] &
              0xFFFF;
          part.entry_exit_cost[ei * part.exits.size() + xi] =
              dist[exit_local];
        }
      }
      return Status::OK();
    };
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) {
      threads.emplace_back([&, t]() {
        while (true) {
          const size_t p = next.fetch_add(1, std::memory_order_relaxed);
          if (p >= num_partitions) break;
          Status s = customize_one(p);
          if (!s.ok() && thread_status[t].ok()) thread_status[t] = s;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const Status& s : thread_status) ATIS_RETURN_NOT_OK(s);
  }
  edge_spill.Clear();

  // Overlay graph over the boundary nodes: customized entry->exit arcs
  // plus the cross edges themselves.
  {
    std::vector<NodeId> boundary;
    for (const Partition& part : store->partitions_) {
      boundary.insert(boundary.end(), part.entries.begin(),
                      part.entries.end());
      boundary.insert(boundary.end(), part.exits.begin(), part.exits.end());
    }
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    store->overlay_nodes_ = std::move(boundary);
    store->overlay_index_.assign(n, -1);
    store->overlay_xy_.reserve(store->overlay_nodes_.size());
    for (size_t i = 0; i < store->overlay_nodes_.size(); ++i) {
      const NodeId g = store->overlay_nodes_[i];
      store->overlay_index_[static_cast<size_t>(g)] = static_cast<int32_t>(i);
      const uint32_t pk = store->packed(g);
      store->overlay_xy_.push_back(
          store->partitions_[pk >> 16].xy[pk & 0xFFFF]);
    }
    store->overlay_adj_.assign(store->overlay_nodes_.size(), {});
    for (const Partition& part : store->partitions_) {
      for (size_t ei = 0; ei < part.entries.size(); ++ei) {
        const int32_t from =
            store->overlay_index_[static_cast<size_t>(part.entries[ei])];
        for (size_t xi = 0; xi < part.exits.size(); ++xi) {
          if (part.entries[ei] == part.exits[xi]) continue;
          const double cost =
              part.entry_exit_cost[ei * part.exits.size() + xi];
          if (!(cost < kInf)) continue;
          const int32_t to =
              store->overlay_index_[static_cast<size_t>(part.exits[xi])];
          store->overlay_adj_[static_cast<size_t>(from)].emplace_back(
              static_cast<uint32_t>(to), cost);
        }
      }
    }
    for (const CrossEdge& ce : cross_edges) {
      const int32_t from = store->overlay_index_[static_cast<size_t>(ce.u)];
      const int32_t to = store->overlay_index_[static_cast<size_t>(ce.v)];
      store->overlay_adj_[static_cast<size_t>(from)].emplace_back(
          static_cast<uint32_t>(to), StoreCost(ce.cost));
    }
  }
  return store;
}

Result<std::vector<RelationalGraphStore::EdgeRow>>
PartitionedGraphStore::FetchAdjacency(NodeId global) const {
  const int p = PartitionOf(global);
  if (p < 0) {
    return Status::NotFound("node " + std::to_string(global) +
                            " not in the partitioned store");
  }
  const NodeId local = static_cast<NodeId>(packed(global) & 0xFFFF);
  const Partition& part = partitions_[static_cast<size_t>(p)];
  ATIS_ASSIGN_OR_RETURN(std::vector<RelationalGraphStore::EdgeRow> rows,
                        part.store->FetchAdjacency(local));
  for (RelationalGraphStore::EdgeRow& row : rows) {
    row.begin = global;
    row.end = part.local_to_global[static_cast<size_t>(row.end)];
  }
  return rows;
}

Result<PartitionedGraphStore::RouteCost>
PartitionedGraphStore::StitchedDistance(NodeId source, NodeId destination,
                                        QueryStats* stats) const {
  const int ps = PartitionOf(source);
  const int pt = PartitionOf(destination);
  if (ps < 0 || pt < 0) {
    return Status::NotFound("query endpoint not in the partitioned store");
  }
  if (stats != nullptr) stats->cross_partition = (ps != pt);
  if (source == destination) return RouteCost{true, 0.0};
  const Partition& spart = partitions_[static_cast<size_t>(ps)];
  const Partition& tpart = partitions_[static_cast<size_t>(pt)];

  // Labels of the query graph: the source partition's owned nodes, then
  // the target partition's (when it differs), then every overlay node.
  // Overlay labels of the source and target partitions are never used:
  // their stores are searched instead.
  const uint32_t target_base = ps == pt ? 0 : spart.num_owned;
  const uint32_t overlay_base = target_base + tpart.num_owned;
  auto label_of = [&](NodeId global) -> uint32_t {
    const uint32_t pk = packed(global);
    const int p = static_cast<int>(pk >> 16);
    if (p == ps) return pk & 0xFFFF;
    if (p == pt) return target_base + (pk & 0xFFFF);
    return overlay_base + static_cast<uint32_t>(
                              overlay_index_[static_cast<size_t>(global)]);
  };
  const uint32_t goal = label_of(destination);
  const FloatPoint goal_xy = tpart.xy[packed(destination) & 0xFFFF];

  std::vector<double> dist(overlay_base + overlay_nodes_.size(), kInf);
  std::priority_queue<AStarEntry, std::vector<AStarEntry>,
                      std::greater<AStarEntry>>
      heap;
  auto relax = [&](uint32_t label, const FloatPoint& xy, double d) {
    if (d < dist[label]) {
      dist[label] = d;
      heap.push(AStarEntry{d + Euclid(xy, goal_xy) * potential_scale_, d,
                           label});
    }
  };
  relax(packed(source) & 0xFFFF, spart.xy[packed(source) & 0xFFFF], 0.0);

  // No closed set: an entry is stale only when its label has improved, so
  // a node re-opened by a rounding-level potential inconsistency is simply
  // expanded again and the early stop stays exact.
  QueryStats counts;
  RouteCost result;
  while (!heap.empty()) {
    const AStarEntry top = heap.top();
    heap.pop();
    if (top.dist > dist[top.label]) continue;
    if (top.label == goal) {
      result = RouteCost{true, top.dist};
      break;
    }
    if (top.label >= overlay_base) {
      ++counts.settled_overlay;
      for (const auto& [to, cost] : overlay_adj_[top.label - overlay_base]) {
        relax(label_of(overlay_nodes_[to]), overlay_xy_[to], top.dist + cost);
      }
      continue;
    }
    const bool in_target = ps != pt && top.label >= target_base;
    const Partition& part = in_target ? tpart : spart;
    const uint32_t base = in_target ? target_base : 0;
    ++(in_target ? counts.settled_target : counts.settled_source);
    ATIS_ASSIGN_OR_RETURN(
        std::vector<RelationalGraphStore::EdgeRow> rows,
        part.store->FetchAdjacency(static_cast<NodeId>(top.label - base)));
    for (const RelationalGraphStore::EdgeRow& row : rows) {
      const size_t to = static_cast<size_t>(row.end);
      const uint32_t label =
          to < part.num_owned ? base + static_cast<uint32_t>(to)
                              : label_of(part.local_to_global[to]);
      relax(label, part.xy[to], top.dist + row.cost);
    }
  }
  if (stats != nullptr) {
    stats->settled_source = counts.settled_source;
    stats->settled_overlay = counts.settled_overlay;
    stats->settled_target = counts.settled_target;
  }
  return result;
}

Result<PartitionedGraphStore::RouteCost>
PartitionedGraphStore::GlobalDijkstra(NodeId source, NodeId destination,
                                      QueryStats* stats) const {
  if (PartitionOf(source) < 0 || PartitionOf(destination) < 0) {
    return Status::NotFound("query endpoint not in the partitioned store");
  }
  if (stats != nullptr) {
    stats->cross_partition =
        PartitionOf(source) != PartitionOf(destination);
  }
  std::unordered_map<NodeId, double> dist;
  dist.reserve(1024);
  MinHeap heap;
  dist.emplace(source, 0.0);
  heap.push(HeapEntry{0.0, static_cast<uint32_t>(source)});
  uint64_t settled = 0;
  while (!heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    const NodeId u = static_cast<NodeId>(top.node);
    const auto it = dist.find(u);
    if (it == dist.end() || top.dist > it->second) continue;
    ++settled;
    if (u == destination) {
      if (stats != nullptr) stats->settled_source = settled;
      return RouteCost{true, top.dist};
    }
    ATIS_ASSIGN_OR_RETURN(std::vector<RelationalGraphStore::EdgeRow> rows,
                          FetchAdjacency(u));
    for (const RelationalGraphStore::EdgeRow& row : rows) {
      const double nd = top.dist + row.cost;
      const auto [vit, inserted] = dist.emplace(row.end, nd);
      if (!inserted) {
        if (nd >= vit->second) continue;
        vit->second = nd;
      }
      heap.push(HeapEntry{nd, static_cast<uint32_t>(row.end)});
    }
  }
  if (stats != nullptr) stats->settled_source = settled;
  return RouteCost{false, 0.0};
}

}  // namespace atis::graph
