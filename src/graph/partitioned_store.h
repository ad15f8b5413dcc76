// Hilbert-range partitioned graph store: continent-scale serving.
//
// The relational store is capped at 32767 nodes by R's 16-bit node ids
// (the paper's T_r = 16-byte tuple). A continent map (~10^6 nodes) is
// served by K region stores instead, each a full RelationalGraphStore
// over a contiguous range of the global Hilbert order:
//
//   1. The ATISG2 file is streamed through an external sort by Hilbert
//      key (storage/spill_sort.h; bounded memory, every block metered).
//   2. The sorted node stream is cut into K ranges of at most
//      `max_partition_nodes`. Each cut snaps to the largest Hilbert-key
//      gap within a window around the equal-count position — key gaps
//      fall in the empty space between cities, so cuts cross only the
//      few freeway corridors instead of slicing through street grids.
//   3. Each partition is materialised one at a time (never the whole
//      map): owned nodes get dense local ids; an edge leaving the
//      partition keeps its tuple in the owner's S relation but points at
//      a "ghost" local id — a stub node carrying the remote endpoint's
//      coordinates — with a per-partition ghost -> global table.
//   4. Queries are answered exactly by one A* search over the standard
//      customizable-route-planning query graph. The source and target
//      partitions are searched through their stores (metered fetches);
//      every other partition is represented only by its boundary
//      overlay nodes (the A* v5 overlay at inter-partition scale): per
//      partition, customized within-partition shortest costs from every
//      entry boundary node to every exit boundary node, plus the cross
//      edges themselves. The potential is euclid(v, t) / v_max, with
//      v_max the fastest edge of the map, so the search is goal directed
//      and stops as soon as the destination is settled.
//
// All partitions share one BufferPool (and so one metered DiskManager):
// the cache is a global resource, partitioning only the tuple space.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/relational_graph.h"
#include "storage/buffer_pool.h"

namespace atis::graph {

struct PartitionedStoreOptions {
  /// Upper bound on owned nodes per partition. Ghosts ride on top, so
  /// keep comfortably under the 32767-node store cap.
  size_t max_partition_nodes = 24000;
  /// Run-buffer budget for the build's external sorts.
  size_t sort_budget_bytes = 4u << 20;
  /// Cut-snapping window as a fraction of the equal-count partition
  /// size: the cut lands on the largest key gap within +/- this window.
  double gap_window = 0.10;
  /// Threads for overlay customization (0 = hardware concurrency).
  unsigned customize_threads = 0;
};

class PartitionedGraphStore {
 public:
  struct RouteCost {
    bool found = false;
    double cost = 0.0;
  };

  /// Float coordinates: what the A* potential and v_max are computed on.
  struct FloatPoint {
    float x;
    float y;
  };

  /// Per-query work counters for the stitched path, for metrics.
  struct QueryStats {
    uint64_t settled_source = 0;   ///< settled source-partition store nodes
    uint64_t settled_overlay = 0;  ///< settled overlay nodes elsewhere
    uint64_t settled_target = 0;   ///< settled target-partition store nodes
    bool cross_partition = false;
  };

  /// Streams `path` (ATISG1/ATISG2) into a partitioned store backed by
  /// `pool`, then customizes the boundary overlay. Bounded memory: at no
  /// point is more than one partition's subgraph resident.
  static Result<std::unique_ptr<PartitionedGraphStore>> Build(
      const std::string& path, storage::BufferPool* pool,
      const PartitionedStoreOptions& options = {});

  size_t num_partitions() const { return partitions_.size(); }
  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }
  size_t num_boundary_nodes() const { return overlay_nodes_.size(); }
  size_t num_cross_edges() const { return num_cross_edges_; }

  /// Partition owning `global`, or -1 for an out-of-range id.
  int PartitionOf(NodeId global) const;
  RelationalGraphStore& partition(size_t p) { return *partitions_[p].store; }
  const RelationalGraphStore& partition(size_t p) const {
    return *partitions_[p].store;
  }
  /// Owned (non-ghost) nodes of partition p.
  size_t partition_num_owned(size_t p) const {
    return partitions_[p].num_owned;
  }

  /// Adjacency of a global node id, endpoints translated back to global
  /// ids. Served by the owning partition's clustered fetch (metered).
  Result<std::vector<RelationalGraphStore::EdgeRow>> FetchAdjacency(
      NodeId global) const;

  /// Exact point-to-point cost: A* over the source and target partition
  /// stores (metered) and the in-memory overlay of every other
  /// partition, stopping when the destination is settled. Thread-safe:
  /// no store working-state is touched.
  Result<RouteCost> StitchedDistance(NodeId source, NodeId destination,
                                     QueryStats* stats = nullptr) const;

  /// Reference path: plain Dijkstra over FetchAdjacency with in-memory
  /// labels. Exact by construction; the unpartitioned baseline the
  /// stitched path is benchmarked against. Thread-safe.
  Result<RouteCost> GlobalDijkstra(NodeId source, NodeId destination,
                                   QueryStats* stats = nullptr) const;

 private:
  struct Partition {
    std::unique_ptr<RelationalGraphStore> store;
    uint32_t num_owned = 0;
    /// Local id -> global id, owned nodes then ghosts.
    std::vector<NodeId> local_to_global;
    /// Local id -> coordinates, parallel to local_to_global.
    std::vector<FloatPoint> xy;
    /// Boundary nodes (global ids, sorted): targets of incoming cross
    /// edges (entries) and sources of outgoing ones (exits).
    std::vector<NodeId> entries;
    std::vector<NodeId> exits;
    /// Customized within-partition shortest costs, entries x exits,
    /// row-major; +inf where unreachable without leaving the partition.
    std::vector<double> entry_exit_cost;
  };

  PartitionedGraphStore() = default;

  /// Packed owner of a global id: (partition << 16) | local.
  static constexpr uint32_t kUnmapped = UINT32_MAX;
  uint32_t packed(NodeId global) const {
    return global_map_[static_cast<size_t>(global)];
  }

  uint64_t num_nodes_ = 0;
  uint64_t num_edges_ = 0;
  size_t num_cross_edges_ = 0;
  std::vector<Partition> partitions_;
  /// Global id -> packed(partition, local), kUnmapped for invalid ids.
  std::vector<uint32_t> global_map_;
  /// Overlay graph over boundary nodes: ids, coordinates, global->overlay
  /// index, and adjacency (entry->exit customized arcs + cross edges).
  std::vector<NodeId> overlay_nodes_;
  std::vector<FloatPoint> overlay_xy_;
  std::vector<std::vector<std::pair<uint32_t, double>>> overlay_adj_;
  /// Overlay index of a global id, or -1 (parallel to global_map_; dense
  /// int32 keeps lookups O(1) without a hash map).
  std::vector<int32_t> overlay_index_;
  /// A* potential per unit of Euclidean distance: 1 / v_max, with v_max
  /// grown by a relative 1e-9 against rounding; 0 (plain Dijkstra) when
  /// some edge of positive length costs nothing.
  double potential_scale_ = 0.0;
};

}  // namespace atis::graph
