// Independent answer checker. It shares no code with src/core: the
// benchmark keeps its own copy of each map as a compressed adjacency
// array, with every cost rounded to float exactly as the relational store
// keeps it, and answers reference queries with its own Dijkstra.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perfbench {

class RefMap {
 public:
  /// Copies `g`, rounding every edge cost to float.
  explicit RefMap(const atis::graph::Graph& g);

  size_t num_nodes() const { return offsets_.size() - 1; }
  /// Sets the cost of u -> v (rounded to float). False when the edge is
  /// absent.
  bool SetCost(int32_t u, int32_t v, double cost);
  /// Cost of u -> v, or NaN when there is no such edge.
  double EdgeCost(int32_t u, int32_t v) const;
  /// Shortest-path cost s -> t; +inf when t is unreachable.
  double Distance(int32_t s, int32_t t) const;
  /// Shortest-path costs from s to every node (+inf when unreachable).
  std::vector<double> DistancesFrom(int32_t s) const;

 private:
  std::vector<double> Dijkstra(int32_t s, int32_t stop_at) const;

  std::vector<uint32_t> offsets_;
  std::vector<int32_t> to_;
  std::vector<double> cost_;
};

/// True when a reported cost equals the reference up to the float
/// rounding of `hops` accumulated steps (the store keeps path costs as
/// float).
bool CostsAgree(double got, double want, size_t hops);

/// Checks one served route against the reference cost `want` (+inf when
/// unreachable): found must match, the path must run s..t over existing
/// edges, its hop costs must sum to the reported cost, and that cost must
/// equal `want`. Returns "" when the answer is right, else what is wrong.
std::string CheckRoute(const RefMap& map, int32_t s, int32_t t, bool found,
                       double cost, const std::vector<int32_t>& path,
                       double want);

/// Feeds the checker a right answer, a wrong cost and a broken path on a
/// small hand-built map. Returns "" when it accepts the first and rejects
/// both others.
std::string CheckerSelfTest();

}  // namespace perfbench
