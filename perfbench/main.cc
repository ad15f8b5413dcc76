// The repository benchmark's binary. Usage:
//
//   atis_perfbench --workload <rush_hour|live_traffic|continent>
//                  --seed <n> --seconds <n> --trace <0|1> [--workdir <dir>]
//
// Every flag of a run is required; an unknown flag or a bad value prints
// usage and exits 2 before any work starts. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Every run first feeds the answer checker known-bad answers
// and stops if it accepts one. A wrong answer names the query on stderr
// and exits 1.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "checker.h"
#include "common.h"

namespace {

constexpr const char* kUsage =
    "usage: atis_perfbench --workload <rush_hour|live_traffic|continent> "
    "--seed <n> --seconds <1..3600> --trace <0|1> [--workdir <dir>]\n";

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "atis_perfbench: %s\n%s", problem.c_str(), kUsage);
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE) Usage(flag + " is out of range: " + text);
  return v;
}

perfbench::Options Parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--workdir") {
      Usage("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (value != "rush_hour" && value != "live_traffic" &&
          value != "continent") {
        Usage("unknown workload '" + value + "'");
      }
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = ParseUnsigned(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t s = ParseUnsigned(flag, value);
      if (s < 1 || s > 3600) Usage("--seconds must be 1..3600");
      o.seconds = static_cast<int>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      o.trace = value == "1";
      have_trace = true;
    } else {
      if (value.empty()) Usage("--workdir must not be empty");
      o.workdir = value;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are all required");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = Parse(argc, argv);
  if (const std::string why = perfbench::CheckerSelfTest(); !why.empty()) {
    perfbench::Fatal("checker self-test failed: " + why);
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) perfbench::Fatal("cannot create " + options.workdir);

  perfbench::Report report;
  if (options.workload == "rush_hour") {
    report = perfbench::RunRushHour(options);
  } else if (options.workload == "live_traffic") {
    report = perfbench::RunLiveTraffic(options);
  } else {
    report = perfbench::RunContinent(options);
  }
  perfbench::PrintReport(report);
  return report.correct ? 0 : 1;
}
