// Shared plumbing of the repository benchmark: command-line options, the
// result record every workload fills, timing and memory probes, seeded
// samplers, and the per-thread tracing used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/io_meter.h"
#include "util/random.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Scratch directory for map files, WAL directories and traces.
  std::string workdir = ".bench_work";
};

/// One metric as printed in the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `metrics` holds the end-to-end set on an
/// untraced run and the per-layer set on a traced run.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Prints `report` as the single JSON object the benchmark ends with.
void PrintReport(const Report& report);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double PeakRssMb();

/// Linear-interpolated median; 0 for an empty sample.
double Median(std::vector<double> v);
/// a / b, or 0 when b is 0 (layer ratios on workloads that bypass the layer).
double Ratio(double a, double b);

/// Aborts the run with a message on stderr and exit code 1, printing no
/// result line. For set-up failures, where there is nothing to report.
[[noreturn]] void Fatal(const std::string& message);

/// Power-law sampler over ranks 0..n-1: P(k) proportional to 1/(k+1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t operator()(atis::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Per-thread span recording for traced runs. Each benchmark thread owns
/// one Tracer; spans stay in memory and are written as Chrome trace JSON
/// by WriteAll when the run ends. With tracing off every call is a no-op.
class TraceSet {
 public:
  explicit TraceSet(bool enabled) : enabled_(enabled) {}
  /// A tracer for one thread (null when disabled). Owned by the set.
  atis::obs::Tracer* NewTracer();
  bool enabled() const { return enabled_; }
  /// Total spans recorded across every tracer.
  uint64_t SpanCount() const;
  /// Writes `<dir>/trace-<workload>-<i>.json`, one file per tracer.
  void WriteAll(const std::string& dir, const std::string& workload) const;

 private:
  bool enabled_;
  std::vector<std::unique_ptr<atis::obs::Tracer>> tracers_;
};

/// Binds `tracer` (may be null) as the calling thread's benchmark tracer
/// for the scope's lifetime. The tracer is not installed as the program's
/// current tracer: spans come from the benchmark's own code only, never
/// from the program's instrumentation inside the calls it times.
class TraceScope {
 public:
  explicit TraceScope(atis::obs::Tracer* tracer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  atis::obs::Tracer* previous_;
};

/// A span on the calling thread's benchmark tracer; a no-op when none is
/// bound.
class Span {
 public:
  Span(const char* name, const char* category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  atis::obs::Tracer* tracer_;
  atis::obs::TraceSpan* span_ = nullptr;
};

/// Metric values by name, as a workload computes them.
using Values = std::map<std::string, double>;

/// Fills report->metrics: on an untraced run the end-to-end metrics (each
/// must be in `e2e`), on a traced run the per-layer metrics (a layer the
/// workload bypasses is absent from `layers` and reads 0). A name in
/// either map that is not a declared metric aborts the run.
void Emit(const Options& options, const Values& e2e, const Values& layers,
          Report* report);

/// Set-up timings of one workload: each repeat's total and its two phases.
struct SetupTimes {
  std::vector<double> total, first, second;
};

/// Times set-up `repeats` times as two phases, each under a span of its
/// name. `reset` runs untimed before every repeat, so the previous
/// repeat's objects are freed outside the clock. `setup_s` is the median
/// of `total`: one slow repeat does not move it.
SetupTimes TimeSetup(int repeats, const std::function<void()>& reset,
                     const char* first_span, const std::function<void()>& first,
                     const char* second_span,
                     const std::function<void()>& second);

/// Adds the buffer_pool.* and disk.* layer metrics of the measured phase:
/// the pool's counters between `before` and `after`, and `io`, the block
/// I/O the measured queries' responses report, over `queries` queries.
void AddIoLayers(const atis::storage::BufferPoolStats& before,
                 const atis::storage::BufferPoolStats& after,
                 const atis::storage::IoCounters& io, double queries,
                 Values* layers);

/// `io` priced in Table 4A units, per query. Each counter is divided by
/// `queries` before pricing: a correctly rounded quotient of two integers,
/// so when every round does the same I/O the figure is the same to the
/// last bit however many rounds a run makes.
double IoUnitsPerQuery(const atis::storage::IoCounters& io, uint64_t queries);

/// True when the I/O every response reports sums to what the disk meter
/// counted over the same phase; otherwise names both on stderr.
bool IoSumsAgree(const char* workload, const atis::storage::IoCounters& responses,
                 const atis::storage::IoCounters& meter);

/// Drives `clients` closed-loop client threads in whole rounds: each
/// client calls round(client, r) for r = 0, 1, ... and waits for the
/// others at the end of every round. Round 0 warms caches and is not
/// measured; measured rounds continue until their summed time reaches
/// `seconds`, so a run always ends on a round boundary. after_round(r) runs
/// with every client parked after round r, outside the timed rounds: the
/// place to check and drop a round's answers and, after round 0, to take
/// the counters the measured phase is reported against. Each client thread
/// binds its own tracer from `traces`. Returns each measured round's time.
std::vector<double> RunRounds(
    size_t clients, int seconds, TraceSet* traces,
    const std::function<void(size_t client, size_t round)>& round,
    const std::function<void(size_t round)>& after_round);

/// Queries per second as the median over rounds of one round's rate, so a
/// short stall on a shared machine moves one round, not the run's figure.
double MedianRate(double queries_per_round,
                  const std::vector<double>& round_seconds);

/// The workloads; each returns its report (see the .cc files).
Report RunRushHour(const Options& options);
Report RunLiveTraffic(const Options& options);
Report RunContinent(const Options& options);

}  // namespace perfbench
