// perfbench: the repository benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--budget-scale <x>] [--work-dir <dir>]
//   perfbench --selftest-digest --workload <name> --seed <n>
//             [--budget-scale <x>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check still prints the result (correct = false) and exits 1.
// See perfbench/README.md for the workloads and metric definitions.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/kernels/kernels.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double budget_scale = 1.0;
  std::string work_dir;
  bool selftest_digest = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--budget-scale <x>] [--work-dir <dir>]\n"
               "       %s --selftest-digest --workload <name> --seed <n> "
               "[--budget-scale <x>]\n",
               argv0, argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest-digest") {
      a.selftest_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(v);
    } else if (arg == "--trace") {
      a.trace = std::atoi(v);
    } else if (arg == "--budget-scale") {
      a.budget_scale = std::atof(v);
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(argv[0]);
    }
  }
  if (a.workload.empty() || a.seconds <= 0 || a.budget_scale <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    usage(argv[0]);
  }
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

// Why this build's numbers must not be reported; empty when they may.
std::string unreportable_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type ") + PERFBENCH_BUILD_TYPE +
           " (only Release is reported)";
  }
  return "";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const WorkloadSpec* find_workload(const std::vector<WorkloadSpec>& ws,
                                  const std::string& name) {
  for (const WorkloadSpec& w : ws) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// Vacuity guard for the reproducibility check: two campaigns with the
// same seed must give equal digests AND two different seeds must not, or
// the check could never fail.
int selftest_digest(const WorkloadSpec& w, u64 seed) {
  const Target t = build_target(w);
  Outcome unused;
  WorkloadSpec plain = w;
  plain.durable = false;  // the digest does not depend on the stores
  const auto digest = [&](u64 s) {
    return digest_of(
        measure_campaign(plain, t, instance_config(plain, s, 0), "", unused)
            .result);
  };
  const Digest a = digest(seed);
  const Digest a2 = digest(seed);
  const Digest b = digest(seed + 1);
  std::printf("seed %llu: %s\nseed %llu: %s\nseed %llu: %s\n",
              static_cast<unsigned long long>(seed), a.str().c_str(),
              static_cast<unsigned long long>(seed), a2.str().c_str(),
              static_cast<unsigned long long>(seed + 1), b.str().c_str());
  const bool same_seed_equal = a == a2;
  const bool check_can_fail = !(a == b);
  std::printf("same seed reproduces: %s\ndifferent seeds detected: %s\n",
              same_seed_equal ? "yes" : "NO",
              check_can_fail ? "yes" : "NO");
  return same_seed_equal && check_can_fail ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::vector<WorkloadSpec> workloads = all_workloads(args.budget_scale);
  const WorkloadSpec* w = find_workload(workloads, args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const WorkloadSpec& k : workloads) {
      std::fprintf(stderr, " %s", k.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  if (args.selftest_digest) return selftest_digest(*w, args.seed);

  RunContext ctx;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.work_dir = args.work_dir.empty()
                     ? ".bench_build/work-" + std::to_string(::getpid())
                     : args.work_dir;
  std::filesystem::remove_all(ctx.work_dir);
  std::filesystem::create_directories(ctx.work_dir);

  std::printf(
      "{\"attribution\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"budget_execs\": %llu, \"instances\": %u, \"workers\": %u, "
      "\"trace\": %d, \"nproc\": %ld, \"kernel\": \"%s\", \"cpu\": \"%s\", "
      "\"build_type\": \"%s\"}}\n",
      w->name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(w->config.max_execs), w->instances,
      w->workers, args.trace, ::sysconf(_SC_NPROCESSORS_ONLN),
      bigmap::kernels::active_kernel().name,
      json_escape(cpu_model()).c_str(), PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  MetricSet metrics;
  Outcome outcome;
  try {
    if (args.trace == 1) {
      run_traced(*w, ctx, metrics, outcome);
    } else {
      run_end_to_end(*w, ctx, metrics, outcome);
    }
  } catch (const std::exception& e) {
    std::filesystem::remove_all(ctx.work_dir);
    std::fprintf(stderr, "benchmark failed: %s\n", e.what());
    return 1;
  }
  std::filesystem::remove_all(ctx.work_dir);

  for (const Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) {
      outcome.check(false, "metric " + m.name + " is not finite");
    }
  }
  // A sanitizer or non-Release build still runs every check, but its
  // numbers are not reported.
  const std::string refuse = unreportable_build();
  for (const std::string& p : outcome.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  if (!refuse.empty()) {
    std::printf("checks %s; numbers not reported: %s\n",
                outcome.correct ? "passed" : "FAILED", refuse.c_str());
    return outcome.correct ? 3 : 1;
  }
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    if (!std::isfinite(m.value)) continue;
    std::printf("%-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  const double error_rate =
      static_cast<double>(outcome.failed) /
      static_cast<double>(outcome.attempted == 0 ? 1 : outcome.attempted);
  std::printf("%-40s %18.6f ratio (%llu failed / %llu attempted)\n",
              "error_rate", error_rate,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("%s\n", json.c_str());
  return outcome.correct ? 0 : 1;
}
