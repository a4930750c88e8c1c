// e2e_bench: one workload, one seed, one run.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>] [--commit <id>]
//
// Prints provenance, one line per metric and, as the last line of stdout,
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ledger. Exits 1 when any output fails the correctness gate, 2 on bad
// arguments.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"
#include "util/simd.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

/// CPU time the hypervisor gave to other guests (steal), summed over CPUs,
/// in seconds; 0 where /proc/stat has no steal column.
double steal_seconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (!stat) return 0.0;
  unsigned long long user, nice, system, idle, iowait, irq, softirq, steal = 0;
  const int read = std::fscanf(stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &user, &nice,
                               &system, &idle, &iowait, &irq, &softirq, &steal);
  std::fclose(stat);
  return read == 8 ? static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK))
                   : 0.0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<solve_gk25x500_thread|stream_gk10x100_cluster> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--commit <id>]\n",
               why);
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const std::string value = argv[a + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (!end || *end != '\0' || !(options.seconds > 0.0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (!have_seed) return usage("missing or bad --seed");
  const bool stream = options.workload == "stream_gk10x100_cluster";
  if (!stream && options.workload != "solve_gk25x500_thread") return usage("unknown workload");

  std::printf("provenance: {\"simd\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
              "\"nproc\": %ld, \"commit\": \"%s\"}\n",
              pts::simd::to_string(pts::simd::active()), E2E_BUILD_TYPE, __VERSION__,
              sysconf(_SC_NPROCESSORS_ONLN), commit.c_str());
  std::printf("workload: %s seed %llu, %.1f s, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
  std::fflush(stdout);

  e2e::Verifier verifier;
  e2e::Metrics metrics;
  const double steal_before = steal_seconds();
  if (stream) {
    e2e::run_stream(options, verifier, metrics);
  } else {
    e2e::run_solve(options, verifier, metrics);
  }

  // Stolen CPU time explains slow runs on a shared host; it is not a metric.
  std::printf("host: %.2f s of CPU time stolen by the hypervisor during the run\n",
              steal_seconds() - steal_before);
  for (const auto& message : verifier.messages()) std::fprintf(stderr, "%s\n", message.c_str());
  const auto attempted = verifier.attempted();
  const auto failed = verifier.failed();
  std::printf("failed_ratio = %.6f (%llu of %llu jobs)\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::string json = std::string("{\"correct\": ") + (verifier.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& name : metrics.order()) {
    std::printf("%s = %s %s\n", name.c_str(), json_number(metrics.value(name)).c_str(),
                metrics.unit(name).c_str());
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            json_number(metrics.value(name)) + ", \"unit\": \"" + metrics.unit(name) + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return verifier.correct() && attempted > 0 ? 0 : 1;
}
