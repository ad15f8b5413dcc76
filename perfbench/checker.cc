#include "checker.h"

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double RoundToFloat(double c) {
  return static_cast<double>(static_cast<float>(c));
}

}  // namespace

RefMap::RefMap(const atis::graph::Graph& g) {
  offsets_.push_back(0);
  for (size_t u = 0; u < g.num_nodes(); ++u) {
    for (const atis::graph::Edge& e :
         g.Neighbors(static_cast<atis::graph::NodeId>(u))) {
      to_.push_back(e.to);
      cost_.push_back(RoundToFloat(e.cost));
    }
    offsets_.push_back(static_cast<uint32_t>(to_.size()));
  }
}

bool RefMap::SetCost(int32_t u, int32_t v, double cost) {
  if (u < 0 || static_cast<size_t>(u) >= num_nodes()) return false;
  for (uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
    if (to_[i] == v) {
      cost_[i] = RoundToFloat(cost);
      return true;
    }
  }
  return false;
}

double RefMap::EdgeCost(int32_t u, int32_t v) const {
  if (u < 0 || static_cast<size_t>(u) >= num_nodes()) return std::nan("");
  for (uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
    if (to_[i] == v) return cost_[i];
  }
  return std::nan("");
}

double RefMap::Distance(int32_t s, int32_t t) const {
  return Dijkstra(s, t)[static_cast<size_t>(t)];
}

std::vector<double> RefMap::DistancesFrom(int32_t s) const {
  return Dijkstra(s, -1);
}

std::vector<double> RefMap::Dijkstra(int32_t s, int32_t stop_at) const {
  std::vector<double> dist(num_nodes(), kInf);
  using Item = std::pair<double, int32_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<size_t>(s)] = 0.0;
  heap.push({0.0, s});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    if (u == stop_at) break;
    for (uint32_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const double nd = d + cost_[i];
      if (nd < dist[static_cast<size_t>(to_[i])]) {
        dist[static_cast<size_t>(to_[i])] = nd;
        heap.push({nd, to_[i]});
      }
    }
  }
  return dist;
}

bool CostsAgree(double got, double want, size_t hops) {
  if (std::isinf(want) || std::isinf(got)) return got == want;
  // Each float accumulation step rounds by at most 2^-24 of the running
  // total; allow twice that per hop plus one.
  const double tol =
      static_cast<double>(hops + 1) * std::ldexp(std::abs(want), -23) + 1e-9;
  return std::abs(got - want) <= tol;
}

std::string CheckRoute(const RefMap& map, int32_t s, int32_t t, bool found,
                       double cost, const std::vector<int32_t>& path,
                       double want) {
  std::ostringstream why;
  why.precision(12);
  if (found == std::isinf(want)) {
    if (found) return "found a route to an unreachable node";
    why << "reported no route, reference cost " << want;
    return why.str();
  }
  if (!found) return "";
  if (path.empty() || path.front() != s || path.back() != t) {
    return "path does not run from source to destination";
  }
  double sum = 0.0;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const double c = map.EdgeCost(path[i], path[i + 1]);
    if (std::isnan(c)) {
      why << "hop " << path[i] << " -> " << path[i + 1] << " is not an edge";
      return why.str();
    }
    sum += c;
  }
  const size_t hops = path.size() - 1;
  if (!CostsAgree(cost, sum, hops)) {
    why << "reported cost " << cost << " but hops sum to " << sum;
    return why.str();
  }
  if (!CostsAgree(cost, want, hops)) {
    why << "reported cost " << cost << " but the shortest is " << want;
    return why.str();
  }
  return "";
}

std::string CheckerSelfTest() {
  // 0 -> 1 -> 3 costs 2; 0 -> 2 -> 3 costs 5; no edge 0 -> 3.
  atis::graph::Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(i, 0.0);
  (void)g.AddEdge(0, 1, 1.0);
  (void)g.AddEdge(1, 3, 1.0);
  (void)g.AddEdge(0, 2, 2.5);
  (void)g.AddEdge(2, 3, 2.5);
  const RefMap map(g);
  const double want = map.Distance(0, 3);
  if (want != 2.0) return "reference Dijkstra is wrong on the self-test map";
  if (!CheckRoute(map, 0, 3, true, 2.0, {0, 1, 3}, want).empty()) {
    return "a right answer was rejected";
  }
  if (CheckRoute(map, 0, 3, true, 2.5, {0, 1, 3}, want).empty()) {
    return "a wrong cost was accepted";
  }
  if (CheckRoute(map, 0, 3, true, 5.0, {0, 2, 3}, want).empty()) {
    return "a longer path was accepted";
  }
  if (CheckRoute(map, 0, 3, true, 2.0, {0, 3}, want).empty()) {
    return "a broken path was accepted";
  }
  if (CheckRoute(map, 0, 3, false, 0.0, {}, want).empty()) {
    return "a missed route was accepted";
  }
  return "";
}

}  // namespace perfbench
