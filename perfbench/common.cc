#include "common.h"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/stats.h"

namespace perfbench {

void PrintReport(const Report& report) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = 0.0;
      std::istringstream(line.substr(6)) >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) {
  return atis::Percentile(std::move(v), 50.0);
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

Zipf::Zipf(size_t n, double s) {
  double total = 0.0;
  for (size_t k = 0; k < std::max<size_t>(n, 1); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t Zipf::operator()(atis::Rng& rng) const {
  return static_cast<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble()) -
      cdf_.begin());
}

atis::obs::Tracer* TraceSet::NewTracer() {
  if (!enabled_) return nullptr;
  tracers_.push_back(std::make_unique<atis::obs::Tracer>());
  return tracers_.back().get();
}

namespace {
thread_local atis::obs::Tracer* t_tracer = nullptr;
}  // namespace

TraceScope::TraceScope(atis::obs::Tracer* tracer) : previous_(t_tracer) {
  t_tracer = tracer;
}

TraceScope::~TraceScope() { t_tracer = previous_; }

Span::Span(const char* name, const char* category) : tracer_(t_tracer) {
  if (tracer_ != nullptr) span_ = tracer_->BeginSpan(name, category);
}

Span::~Span() {
  if (span_ != nullptr) tracer_->EndSpan(span_);
}

uint64_t TraceSet::SpanCount() const {
  uint64_t n = 0;
  for (const auto& t : tracers_) n += t->SpansByCategory("").size();
  return n;
}

void TraceSet::WriteAll(const std::string& dir,
                        const std::string& workload) const {
  for (size_t i = 0; i < tracers_.size(); ++i) {
    const std::string path =
        dir + "/trace-" + workload + "-" + std::to_string(i) + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << tracers_[i]->ToChromeTraceJson();
    if (!out) Fatal("cannot write " + path);
  }
}

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json, in order.
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "queries/s"},
    {"latency_p50_ms", "ms"},
    {"io_units_per_query", "units"},
    {"peak_rss_mb", "MB"},
};

// Must match "per_layer" in BENCHMARK.json, in order.
constexpr Declared kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"route_server.construct_s", "s"},
    {"partitioned_store.build_s", "s"},
    {"route_server.service_p50_ms", "ms"},
    {"route_server.queue_wait_p50_ms", "ms"},
    {"route_server.update_p50_ms", "ms"},
    {"route_server.catchups_per_update", "count"},
    {"route_cache.hit_ratio", "ratio"},
    {"batch_engine.mean_batch_size", "queries"},
    {"batch_engine.shared_hit_ratio", "ratio"},
    {"batch_engine.coalesced_share", "ratio"},
    {"db_search.iterations_per_query", "count"},
    {"db_search.nodes_generated_per_query", "count"},
    {"overlay.cells_recustomized_per_update", "count"},
    {"update_log.bytes_per_update", "bytes"},
    {"update_log.checkpoints", "count"},
    {"update_log.recovered_batches", "count"},
    {"buffer_pool.hit_ratio", "ratio"},
    {"buffer_pool.evictions_per_query", "count"},
    {"buffer_pool.dirty_writebacks_per_query", "count"},
    {"disk.blocks_read_per_query", "blocks"},
    {"disk.blocks_written_per_query", "blocks"},
    {"partitioned_store.settled_store_per_query", "nodes"},
    {"partitioned_store.settled_overlay_per_query", "nodes"},
    {"partitioned_store.stitch_p50_ms", "ms"},
    {"sharded_route_server.service_p50_ms", "ms"},
    {"sharded_route_server.queue_wait_p50_ms", "ms"},
    {"trace.qps", "queries/s"},
    {"trace.spans_per_query", "spans"},
};

template <size_t N>
void CheckNames(const Values& values, const Declared (&declared)[N]) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const Declared& d : declared) known = known || name == d.name;
    if (!known) Fatal("undeclared metric " + name);
  }
}

}  // namespace

void Emit(const Options& options, const Values& e2e, const Values& layers,
          Report* report) {
  CheckNames(e2e, kEndToEnd);
  CheckNames(layers, kPerLayer);
  if (!options.trace) {
    for (const Declared& d : kEndToEnd) {
      const auto it = e2e.find(d.name);
      if (it == e2e.end()) Fatal(std::string("missing metric ") + d.name);
      report->Add(d.name, it->second, d.unit);
    }
    return;
  }
  for (const Declared& d : kPerLayer) {
    const auto it = layers.find(d.name);
    report->Add(d.name, it == layers.end() ? 0.0 : it->second, d.unit);
  }
}

SetupTimes TimeSetup(int repeats, const std::function<void()>& reset,
                     const char* first_span, const std::function<void()>& first,
                     const char* second_span,
                     const std::function<void()>& second) {
  SetupTimes times;
  for (int rep = 0; rep < repeats; ++rep) {
    reset();
    const auto t0 = Clock::now();
    {
      Span span(first_span, "setup");
      first();
    }
    const double first_s = SecondsSince(t0);
    {
      Span span(second_span, "setup");
      second();
    }
    times.total.push_back(SecondsSince(t0));
    times.first.push_back(first_s);
    times.second.push_back(times.total.back() - first_s);
  }
  return times;
}

void AddIoLayers(const atis::storage::BufferPoolStats& before,
                 const atis::storage::BufferPoolStats& after,
                 const atis::storage::IoCounters& io, double queries,
                 Values* layers) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double hits = delta(before.hits, after.hits);
  (*layers)["buffer_pool.hit_ratio"] =
      Ratio(hits, hits + delta(before.misses, after.misses));
  (*layers)["buffer_pool.evictions_per_query"] =
      delta(before.evictions, after.evictions) / queries;
  (*layers)["buffer_pool.dirty_writebacks_per_query"] =
      delta(before.dirty_writebacks, after.dirty_writebacks) / queries;
  (*layers)["disk.blocks_read_per_query"] =
      static_cast<double>(io.blocks_read) / queries;
  (*layers)["disk.blocks_written_per_query"] =
      static_cast<double>(io.blocks_written) / queries;
}

double IoUnitsPerQuery(const atis::storage::IoCounters& io, uint64_t queries) {
  const atis::storage::CostParams p;
  const auto per = [&](uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(queries);
  };
  return per(io.blocks_read) * p.t_read + per(io.blocks_written) * p.t_write +
         per(io.relations_created) * p.create_relation +
         per(io.relations_deleted) * p.delete_relation;
}

bool IoSumsAgree(const char* workload, const atis::storage::IoCounters& responses,
                 const atis::storage::IoCounters& meter) {
  if (responses.blocks_read == meter.blocks_read &&
      responses.blocks_written == meter.blocks_written) {
    return true;
  }
  std::fprintf(stderr,
               "%s: per-response I/O (%s) does not sum to the disk meter (%s)\n",
               workload, responses.ToString().c_str(), meter.ToString().c_str());
  return false;
}

std::vector<double> RunRounds(
    size_t clients, int seconds, TraceSet* traces,
    const std::function<void(size_t client, size_t round)>& round,
    const std::function<void(size_t round)>& after_round) {
  std::vector<atis::obs::Tracer*> tracers;
  for (size_t c = 0; c < clients; ++c) tracers.push_back(traces->NewTracer());
  // Touched only by the barrier's completion step, with every client parked.
  std::vector<double> round_seconds;
  double measured = 0.0;
  size_t completed = 0;
  bool stop = false;
  Clock::time_point round_start = Clock::now();
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), [&]() noexcept {
    const double took = SecondsSince(round_start);
    if (completed > 0) {
      round_seconds.push_back(took);
      measured += took;
    }
    after_round(completed++);
    stop = measured >= seconds;
    round_start = Clock::now();
  });
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      TraceScope bind(tracers[c]);
      for (size_t r = 0; !stop; ++r) {
        round(c, r);
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return round_seconds;
}

double MedianRate(double queries_per_round,
                  const std::vector<double>& round_seconds) {
  std::vector<double> rates;
  for (double s : round_seconds) rates.push_back(queries_per_round / s);
  return Median(rates);
}

}  // namespace perfbench
