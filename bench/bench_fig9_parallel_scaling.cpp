// Figure 9: scalability with concurrent fuzzing instances at a fixed 2MB
// map. (a) throughput normalized to a single instance; (b) BigMap's speedup
// over AFL at equal instance counts.
//
// This host has one physical core, so the 12-core experiment is reproduced
// with the cache-contention simulator (private L1/L2 per instance, shared
// 12MB L3, bandwidth-limited DRAM — see DESIGN.md substitutions). The
// model's single-instance throughputs are calibrated per benchmark by its
// used-key count and dynamic path length.
//
// Set BIGMAP_REAL_THREADS=1 to additionally run real concurrent campaigns
// (std::thread instances under the fault-tolerant supervisor, shared
// SyncHub) and report measured aggregate throughput. On a single-core host
// this measures supervision overhead rather than scaling; on a multi-core
// host it is the paper's actual protocol.
//
// Set BIGMAP_REAL_PROCS=1 to additionally run the *process* fleet
// (fuzzer/procfleet: forked workers over shared memory) and measure the
// quarantine degradation claim: a fleet that parks one repeatedly-dying
// worker must still deliver its exact exec budget at a throughput within
// 10% of a fleet launched with N-1 workers in the first place.
//
// Set BIGMAP_NETFLEET=1 to additionally federate coordinator processes over
// loopback PeerLinks (fuzzer/netfleet: a pair, then a 3-node star) and
// compare each federation's find-union and exec budget against one fleet
// of the same total width — the scaling story one level up, across
// "hosts" instead of cores.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "bench_common.h"
#include "cachesim/smp.h"
#include "fuzzer/netfleet/federate.h"
#include "fuzzer/procfleet/coordinator.h"
#include "fuzzer/supervisor.h"
#include "target/generator.h"
#include "telemetry/emit.h"

using namespace bigmap;

namespace {

bool real_threads_enabled() {
  const char* env = std::getenv("BIGMAP_REAL_THREADS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void run_real_thread_section() {
  std::printf(
      "\n(c) Real-thread supervised campaigns (measured, not simulated):\n");

  GeneratorParams gp;
  gp.seed = 9;
  gp.live_blocks = 600;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 16, 1);

  const u32 counts[] = {1, 2, 4};
  TableWriter table(
      {"Scheme", "n=1", "n=2", "n=4", "execs/s (n=4)", "restarts"});
  // Telemetry cross-check: each instance's last plot_data row carries its
  // lifetime exec count (the sink survives restarts); their sum must equal
  // the fleet total the supervisor stamps at the end of the run.
  TableWriter check({"Scheme", "n", "sum(plot_data execs)", "fleet total",
                     "supervisor execs", "match"});
  for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
    std::vector<std::string> row{map_scheme_name(scheme)};
    double base = 0;
    double last_agg = 0;
    u64 restarts = 0;
    for (u32 n : counts) {
      telemetry::FleetTelemetry fleet(n);
      SupervisorConfig sc;
      sc.num_instances = n;
      sc.base.scheme = scheme;
      sc.base.map.map_size = 2u << 20;
      sc.base.max_execs = 0;
      sc.base.max_seconds = bench::config_seconds(0.5);
      sc.base.seed = 0xF19;
      sc.base.telemetry_interval = 2048;
      sc.telemetry = &fleet;
      sc.fleet_stamp_ms = 50;
      auto r = run_supervised_campaign(target.program, seeds, sc);
      if (n == counts[0]) base = r.aggregate_throughput;
      last_agg = r.aggregate_throughput;
      restarts += r.total_restarts;
      row.push_back(
          fmt_double(base > 0 ? r.aggregate_throughput / base : 0.0, 2) +
          "x");

      u64 plot_sum = 0;
      for (u32 id = 0; id < n; ++id) {
        plot_sum += fleet.instance(id).latest().execs;
      }
      const bool match = plot_sum == r.fleet_total.execs &&
                         r.fleet_total.execs == r.total_execs;
      check.add_row({map_scheme_name(scheme), std::to_string(n),
                     fmt_count(plot_sum), fmt_count(r.fleet_total.execs),
                     fmt_count(r.total_execs), match ? "yes" : "MISMATCH"});

      if (n == counts[2]) {
        bench::report().add_series(
            std::string("fleet_") + map_scheme_name(scheme),
            fleet.fleet_series());
        if (!bench::telemetry_dir().empty()) {
          telemetry::StatsEmitter emitter(bench::telemetry_dir() + "/" +
                                          map_scheme_name(scheme));
          if (!emitter.emit_fleet(fleet, "bigmap-bench-fig9")) {
            std::fprintf(stderr, "warning: telemetry emission to %s failed\n",
                         emitter.root().c_str());
          }
        }
      }
    }
    row.push_back(fmt_double(last_agg, 0));
    row.push_back(std::to_string(restarts));
    table.add_row(std::move(row));
  }
  bench::emit("real_thread_scaling", table);
  bench::emit("telemetry_consistency", check);
  std::printf(
      "Note: measured on this host's real cores — scaling flattens at the "
      "physical core count; the simulated section above models the paper's "
      "12-core machine.\n");
}

bool real_procs_enabled() {
  const char* env = std::getenv("BIGMAP_REAL_PROCS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void run_real_process_section() {
  std::printf(
      "\n(d) Real-process fleet (forked workers over shared memory, "
      "measured): quarantine degradation vs an (N-1)-worker baseline:\n");

  GeneratorParams gp;
  gp.seed = 9;
  gp.live_blocks = 600;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 16, 1);

  // Floor of 10k execs/worker even at smoke scales: the degraded fleet
  // pays a fixed cost for the dying worker's short-lived incarnations
  // (fork, buffer setup, seed phase x3), and the budget must be large
  // enough to amortize it or the throughput ratio measures startup cost,
  // not degradation.
  const u64 per_worker =
      bench::scaled_execs(30000) < 10000 ? 10000 : bench::scaled_execs(30000);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_fig9_procs_" + std::to_string(::getpid()));

  const auto run_fleet = [&](const char* name, u32 workers, bool chaos) {
    const std::string dir = root + "/" + name;
    std::filesystem::remove_all(dir);
    procfleet::ProcFleetConfig fc;
    fc.num_workers = workers;
    fc.base.scheme = MapScheme::kTwoLevel;
    fc.base.map.map_size = 2u << 20;
    fc.base.map.huge_pages = false;
    fc.base.max_execs = per_worker;
    fc.base.seed = 0xF19;
    fc.base.sync_interval = 1024;
    fc.poll_ms = 2;
    fc.stall_deadline_ms = 5000;
    fc.max_restarts_per_worker = 10;
    fc.backoff_initial_ms = 5;
    fc.backoff_cap_ms = 50;
    fc.checkpoint_interval = 4096;
    fc.persist_dir = dir;
    if (chaos) {
      // Worker 1 SIGKILLs itself on its first three chaos checks: three
      // abnormal deaths inside the window park it, and its undone budget
      // is redistributed over the three survivors.
      fc.fault_enabled = true;
      fc.fault_seed = 42;
      fc.chaos_check_interval = 64;
      fc.quarantine_deaths = 3;
      fc.quarantine_window_ms = 600000;
      fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 1});
      fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
      fc.fault_plan.triggers.push_back({FaultSite::kProcKill, 1, 3});
    }
    auto r = procfleet::run_process_fleet(target.program, seeds, fc);
    std::filesystem::remove_all(dir);
    return r;
  };

  const auto full = run_fleet("full", 4, false);

  // The degradation comparison alternates (N-1)-baseline and degraded
  // fleets and compares medians: on a shared single-core host absolute
  // throughput drifts minute to minute (frequency scaling, noisy
  // neighbours), so adjacent pairs plus a median are what make a relative
  // 10% bar meaningful. Exec budgets are deterministic and asserted on
  // every repetition.
  constexpr int kReps = 3;
  std::vector<double> base_thr, deg_thr;
  procfleet::ProcFleetResult reduced, degraded;
  bool budgets_exact = full.total_execs == 4 * per_worker;
  bool always_one_quarantined = true;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string tag = std::to_string(rep);
    reduced = run_fleet(("reduced" + tag).c_str(), 3, false);
    degraded = run_fleet(("degraded" + tag).c_str(), 4, true);
    base_thr.push_back(reduced.aggregate_throughput);
    deg_thr.push_back(degraded.aggregate_throughput);
    budgets_exact = budgets_exact && reduced.total_execs == 3 * per_worker &&
                    degraded.total_execs == 4 * per_worker;
    always_one_quarantined =
        always_one_quarantined && degraded.quarantined == 1;
  }
  std::filesystem::remove_all(root);

  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double ref = median(base_thr);
  const double deg = median(deg_thr);

  TableWriter table({"Fleet", "workers", "quarantined", "total execs",
                     "budget exact", "execs/s", "vs (N-1)", "within 10%"});
  const auto add = [&](const char* name, const procfleet::ProcFleetResult& r,
                       u32 workers, double thr, bool check) {
    const u64 budget = u64{workers} * per_worker;
    const double ratio = ref > 0 ? thr / ref : 0.0;
    const bool within = ratio >= 0.9;
    table.add_row({name, std::to_string(workers),
                   std::to_string(r.quarantined),
                   fmt_count(r.total_execs),
                   r.total_execs == budget && budgets_exact ? "yes" : "NO",
                   fmt_double(thr, 0),
                   fmt_double(ratio, 2) + "x",
                   check ? (within ? "yes" : "NO") : "-"});
  };
  add("full (N=4)", full, 4, full.aggregate_throughput, false);
  add("baseline (N-1=3)", reduced, 3, ref, false);
  add("degraded (1 parked)", degraded, 4, deg, true);
  bench::emit("real_process_degradation", table);

  if (!always_one_quarantined) {
    std::printf("WARNING: expected exactly one quarantined worker in every "
                "degraded repetition\n");
  }
  std::printf(
      "The degraded fleet keeps the parked worker's durable progress and "
      "redistributes its undone budget, so \"total execs\" stays exactly "
      "N x per-worker budget; its throughput should track the (N-1) "
      "baseline, not collapse.\n");
}

bool netfleet_enabled() {
  const char* env = std::getenv("BIGMAP_NETFLEET");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

void run_pair_federation_section() {
  std::printf(
      "\n(e) Federated fleet (two coordinator processes over a loopback "
      "socket, measured): federation union vs one fleet of equal width:\n");

  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 4, 1);

  const u64 per_worker =
      bench::scaled_execs(10000) < 2000 ? 2000 : bench::scaled_execs(10000);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_fig9_net_" + std::to_string(::getpid()));

  const auto make_config = [&](const std::string& dir, u32 workers,
                               u64 seed) {
    procfleet::ProcFleetConfig fc;
    fc.num_workers = workers;
    fc.base.scheme = MapScheme::kTwoLevel;
    fc.base.map.map_size = 1u << 16;
    fc.base.map.huge_pages = false;
    fc.base.max_execs = per_worker;
    fc.base.seed = seed;
    fc.base.sync_interval = 1024;
    fc.base.deterministic_timing = true;
    fc.poll_ms = 2;
    fc.stall_deadline_ms = 5000;
    fc.checkpoint_interval = 512;
    fc.persist_dir = dir;
    fc.quarantine_deaths = 0;
    return fc;
  };

  // One fleet of 4 workers (seeds 501..504) vs a federation of 2+2 over
  // the same seed set — the same shape the net-chaos drill pins down.
  std::filesystem::remove_all(root);
  auto single_cfg = make_config(root + "/single", 4, 501);
  const auto single =
      procfleet::run_process_fleet(target.program, seeds, single_cfg);

  std::vector<procfleet::ProcFleetConfig> pair;
  pair.push_back(make_config(root + "/a", 2, 501));
  pair.push_back(make_config(root + "/b", 2, 503));
  for (auto& fc : pair) fc.failover.election_timeout_ms = 0;
  const auto fed = netfleet::run_federation(target.program, seeds, pair);
  std::filesystem::remove_all(root);

  if (!fed.ok) {
    std::printf("WARNING: federated pair failed: %s\n", fed.error.c_str());
    return;
  }

  const auto sorted_u32 = [](std::vector<u32> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const bool union_match =
      sorted_u32(single.found_bug_ids) == sorted_u32(fed.found_bug_ids);
  const u64 budget = u64{4} * per_worker;

  TableWriter table({"Topology", "workers", "bugs found", "total execs",
                     "budget exact", "union match", "completed"});
  table.add_row({"single fleet", "4",
                 std::to_string(single.found_bug_ids.size()),
                 fmt_count(single.total_execs),
                 single.total_execs == budget ? "yes" : "NO", "-",
                 single.all_completed() ? "yes" : "NO"});
  table.add_row({"federated 2+2", "2+2",
                 std::to_string(fed.found_bug_ids.size()),
                 fmt_count(fed.total_execs),
                 fed.total_execs == budget ? "yes" : "NO",
                 union_match ? "yes" : "NO",
                 fed.all_completed ? "yes" : "NO"});
  bench::emit("federated_union", table);

  TableWriter link({"Half", "sent", "recv", "novelty filtered", "dups",
                    "reconnects", "bytes tx"});
  const auto add_link = [&](const char* who, const netfleet::LinkStats& n) {
    link.add_row({who, fmt_count(n.records_sent),
                  fmt_count(n.records_received),
                  fmt_count(n.novelty_filtered),
                  fmt_count(n.duplicates_dropped), fmt_count(n.reconnects),
                  fmt_count(n.bytes_sent)});
  };
  add_link("a (leader)", fed.nodes[0].net);
  add_link("b (follower)", fed.nodes[1].net);
  bench::emit("federated_link", link);

  std::printf(
      "The federation pays a socket round-trip per novel corpus entry but "
      "must neither lose nor duplicate finds: \"union match\" compares the "
      "planted-bug union against the equal-width single fleet, and both "
      "topologies deliver exactly 4 x per-worker execs.\n");
}

void run_star_section() {
  std::printf(
      "\n(f) Three-node star federation (hub + 2 spokes, measured): "
      "virgin-map novelty oracle vs content-hash-only filtering:\n");

  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  auto target = generate_target(gp);
  auto seeds = make_seed_corpus(target, 4, 1);

  const u64 per_worker =
      bench::scaled_execs(10000) < 2000 ? 2000 : bench::scaled_execs(10000);
  const std::string root =
      std::filesystem::temp_directory_path() /
      ("bigmap_fig9_star_" + std::to_string(::getpid()));

  const auto make_node = [&](const std::string& dir, u64 seed, bool oracle) {
    procfleet::ProcFleetConfig fc;
    fc.num_workers = 2;
    fc.base.scheme = MapScheme::kTwoLevel;
    fc.base.map.map_size = 1u << 16;
    fc.base.map.huge_pages = false;
    fc.base.max_execs = per_worker;
    fc.base.seed = seed;
    fc.base.sync_interval = 1024;
    fc.base.deterministic_timing = true;
    fc.poll_ms = 2;
    fc.stall_deadline_ms = 5000;
    fc.checkpoint_interval = 512;
    fc.persist_dir = dir;
    fc.quarantine_deaths = 0;
    fc.failover.election_timeout_ms = 0;
    fc.net_virgin_oracle = oracle;
    return fc;
  };

  // Reference: one fleet of the federation's total width (6 workers) over
  // the same seed ladder — the drill-pinned union/budget baseline.
  std::filesystem::remove_all(root);
  auto single_cfg = make_node(root + "/single", 501, false);
  single_cfg.num_workers = 6;
  const u64 t0 = monotonic_ns();
  const auto single =
      procfleet::run_process_fleet(target.program, seeds, single_cfg);
  const double single_secs =
      static_cast<double>(monotonic_ns() - t0) / 1e9;

  const auto run_star = [&](const char* tag, bool oracle,
                            double* secs) -> netfleet::FederationResult {
    std::vector<procfleet::ProcFleetConfig> nodes;
    nodes.push_back(make_node(root + "/" + tag + "_hub", 501, oracle));
    nodes.push_back(make_node(root + "/" + tag + "_s1", 503, oracle));
    nodes.push_back(make_node(root + "/" + tag + "_s2", 505, oracle));
    const u64 start = monotonic_ns();
    auto r = netfleet::run_federation(target.program, seeds, nodes);
    *secs = static_cast<double>(monotonic_ns() - start) / 1e9;
    return r;
  };

  double hash_secs = 0, oracle_secs = 0;
  const auto hash_only = run_star("hash", false, &hash_secs);
  const auto with_oracle = run_star("oracle", true, &oracle_secs);
  std::filesystem::remove_all(root);

  if (!hash_only.ok || !with_oracle.ok) {
    std::printf("WARNING: star federation failed: %s%s\n",
                hash_only.error.c_str(), with_oracle.error.c_str());
    return;
  }

  const auto sorted_u32 = [](std::vector<u32> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  const std::vector<u32> ref_bugs = sorted_u32(single.found_bug_ids);
  const u64 budget = u64{6} * per_worker;

  TableWriter table({"Topology", "workers", "bugs found", "total execs",
                     "budget exact", "union match", "agg exec/s"});
  const auto add = [&](const char* name, const std::vector<u32>& bugs,
                       u64 execs, double secs) {
    table.add_row({name, "3x2",
                   std::to_string(bugs.size()), fmt_count(execs),
                   execs == budget ? "yes" : "NO",
                   sorted_u32(bugs) == ref_bugs ? "yes" : "NO",
                   fmt_double(secs > 0 ? static_cast<double>(execs) / secs
                                       : 0.0,
                              0)});
  };
  table.add_row({"single fleet", "6",
                 std::to_string(single.found_bug_ids.size()),
                 fmt_count(single.total_execs),
                 single.total_execs == budget ? "yes" : "NO", "-",
                 fmt_double(single_secs > 0
                                ? static_cast<double>(single.total_execs) /
                                      single_secs
                                : 0.0,
                            0)});
  add("star, hash filter", hash_only.found_bug_ids, hash_only.total_execs,
      hash_secs);
  add("star, virgin oracle", with_oracle.found_bug_ids,
      with_oracle.total_execs, oracle_secs);
  bench::emit("star_federation", table);

  // Filtering economics: of every candidate transmission the gateways
  // considered, what fraction was suppressed before it cost wire bytes.
  // The hash filter only suppresses literal duplicates; the oracle
  // additionally rejects distinct inputs that flip no virgin bits in its
  // model of the receiving side (rejections include inbound model updates
  // that pin down "never echo this back").
  TableWriter filt({"Mode", "records sent", "hash-filtered",
                    "oracle rejected", "bytes tx", "novelty reject ratio"});
  const auto sum_stats = [](const netfleet::FederationResult& r) {
    netfleet::LinkStats net;
    corpus::OracleStats oc;
    for (const auto& n : r.nodes) {
      net = netfleet::sum_link_stats(net, n.net);
      oc.checked += n.oracle.checked;
      oc.accepted += n.oracle.accepted;
      oc.rejected += n.oracle.rejected;
    }
    return std::make_pair(net, oc);
  };
  const auto add_filt = [&](const char* mode,
                            const netfleet::FederationResult& r) {
    const auto [net, oc] = sum_stats(r);
    const u64 suppressed = net.novelty_filtered + oc.rejected;
    const double ratio =
        suppressed + net.records_sent > 0
            ? static_cast<double>(suppressed) /
                  static_cast<double>(suppressed + net.records_sent)
            : 0.0;
    filt.add_row({mode, fmt_count(net.records_sent),
                  fmt_count(net.novelty_filtered), fmt_count(oc.rejected),
                  fmt_count(net.bytes_sent), fmt_double(ratio, 3)});
  };
  add_filt("hash filter", hash_only);
  add_filt("virgin oracle", with_oracle);
  bench::emit("star_novelty_filtering", filt);

  std::printf(
      "Both stars must reproduce the 6-worker fleet's planted-bug union at "
      "the exact 6 x per-worker budget; the oracle row's higher reject "
      "ratio and lower wire volume are the virgin-map dividend — "
      "distinct-but-redundant inputs never reach the wire.\n");
}

struct Profile {
  const char* name;
  usize used_keys;       // coverage keys the campaign exercises
  usize edges_per_exec;  // dynamic path length
};

// Representative benchmarks spanning Table II's size range.
constexpr Profile kProfiles[] = {
    {"libpng", 1200, 12000},  {"proj4", 6400, 12000},
    {"openssl", 10300, 8000}, {"sqlite3", 20000, 6000},
    {"gvn", 52000, 5000},     {"instcombine", 105000, 5000},
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv, "fig9");
  bench::print_header(
      "Figure 9 — Parallel-fuzzing scalability at a 2MB map (simulated "
      "12-core Xeon E5645)",
      "AFL cannot maintain scaling (negative/flat slope past 4 instances); "
      "BigMap stays near-linear; avg speedups 4.9x/9.2x/13.8x at 4/8/12");

  const u32 counts[] = {1, 4, 8, 12};

  TableWriter table({"Benchmark", "Scheme", "n=1", "n=4", "n=8", "n=12"});
  double sum_speedup[4] = {0, 0, 0, 0};

  for (const Profile& prof : kProfiles) {
    double base[2] = {0, 0};
    double agg[2][4];
    for (MapScheme scheme : {MapScheme::kFlat, MapScheme::kTwoLevel}) {
      const int i = scheme == MapScheme::kTwoLevel;
      std::vector<std::string> row{prof.name, map_scheme_name(scheme)};
      for (int ci = 0; ci < 4; ++ci) {
        SmpParams p;
        p.scheme = scheme;
        p.map_size = 2u << 20;
        p.used_keys = prof.used_keys;
        p.edges_per_exec = prof.edges_per_exec;
        p.instances = counts[ci];
        p.execs_per_instance =
            static_cast<u32>(6 * bench::scale()) < 3
                ? 3
                : static_cast<u32>(6 * bench::scale());
        auto r = simulate_parallel_fuzzing(p);
        agg[i][ci] = r.aggregate_throughput;
        if (ci == 0) base[i] = r.aggregate_throughput;
        row.push_back(fmt_double(r.aggregate_throughput / base[i], 2) +
                      "x");
      }
      table.add_row(std::move(row));
    }
    for (int ci = 0; ci < 4; ++ci) {
      sum_speedup[ci] += agg[1][ci] / agg[0][ci];
    }
  }
  std::printf("(a) Aggregate throughput normalized to one instance:\n");
  bench::emit("normalized_throughput", table);

  std::printf("\n(b) BigMap speedup over AFL at equal instance counts "
              "(average over benchmarks):\n");
  TableWriter sp({"Instances", "BigMap/AFL speedup", "Paper"});
  const char* paper[] = {"-", "4.9x", "9.2x", "13.8x"};
  constexpr int kNumProfiles = 6;
  for (int ci = 0; ci < 4; ++ci) {
    sp.add_row({std::to_string(counts[ci]),
                fmt_double(sum_speedup[ci] / kNumProfiles, 1) + "x",
                paper[ci]});
  }
  bench::emit("speedup_vs_afl", sp);
  std::printf(
      "\nNote: the paper normalizes (b) to AFL at the same instance count; "
      "absolute ratios here inherit this reproduction's single-instance "
      "gap (see EXPERIMENTS.md). The shape to check: the ratio GROWS with "
      "instance count, and AFL's (a) row flattens while BigMap's stays "
      "near 1:1.\n");

  if (real_threads_enabled()) {
    run_real_thread_section();
  } else {
    std::printf(
        "\nSet BIGMAP_REAL_THREADS=1 for measured real-thread supervised "
        "campaigns alongside the simulation.\n");
  }
  if (real_procs_enabled()) {
    run_real_process_section();
  } else {
    std::printf(
        "Set BIGMAP_REAL_PROCS=1 for the measured forked-process fleet and "
        "its quarantine-degradation comparison.\n");
  }
  if (netfleet_enabled()) {
    run_pair_federation_section();
    run_star_section();
  } else {
    std::printf(
        "Set BIGMAP_NETFLEET=1 for the measured two-coordinator federation "
        "over a loopback socket and its union-equality comparison.\n");
  }
  return bench::finish();
}
