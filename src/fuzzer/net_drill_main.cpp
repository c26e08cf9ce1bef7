// net_drill: the federation chaos drill CLI
// (scripts/net_chaos_drill.sh). Every mode runs one fixed campaign shape —
// planted-bug target, 10k execs per worker, deterministic timing — either
// as one local fleet or as a federation of forked coordinator processes
// (2 workers each), every node a FailoverMesh over loopback PeerLinks.
//
// Pair modes over a 4-worker budget, content-hash filtering, no elections:
//
//   net_drill single <dir>          one 4-worker fleet, no network — the
//                                   reference find-union and exec total
//   net_drill pair <dir>            2-node federation, clean network
//   net_drill pair-storm <dir>      the pair under the full network storm:
//                                   seeded frame drops, delays, torn-frame
//                                   short writes, connection resets, and a
//                                   partition — the federation union must
//                                   still match the single fleet exactly
//   net_drill pair-partition <dir>  the pair with a long mid-campaign
//                                   partition-and-heal: both sides keep
//                                   fuzzing on local sync during the cut,
//                                   reconcile on heal
//
// Star modes over a 6-worker budget, the virgin-map novelty oracle gating
// every link, no elections:
//
//   net_drill single-wide <dir>     one 6-worker fleet — the star reference
//   net_drill star <dir>            hub + 2 spokes, clean network; the
//                                   merged find-union must match
//                                   single-wide
//   net_drill star-storm <dir>      the same star under the network storm
//                                   on the hub's links and one spoke's
//
// Failover modes over an 8-worker budget (stretched campaigns), 4 ranks,
// the oracle on every link, delta sync and elections on:
//
//   net_drill single-8 <dir>        one 8-worker fleet — the failover
//                                   reference
//   net_drill star4 <dir>           clean network, no failures: epoch
//                                   stays 1, delta sync carries the
//                                   oracle state
//   net_drill failover-kill <dir>   rank 0 (the initial leader) SIGKILLs
//                                   its whole process group — coordinator
//                                   and workers — right after it applies
//                                   its first oracle delta; the survivors
//                                   elect rank 1 into epoch 2 and re-home;
//                                   the victim is relaunched (resume +
//                                   probe) and REJOINS the new epoch as a
//                                   spoke, finishing its budget
//   net_drill failover-stale <dir>  same kill, but the victim comes back
//                                   stale-fatal: it must observe the newer
//                                   epoch and latch fenced (never
//                                   re-entering the federation), while its
//                                   local fleet still completes its budget
//   net_drill failover-storm <dir>  the kill plus a seeded network storm
//                                   (drops, delays, torn frames, resets)
//                                   on the survivors while they elect
//
// Every mode prints sorted found_bug_ids / found_stack_hashes,
// total_execs, and all_completed in the same diff-friendly format as
// fleet_drill; per-rank link, oracle and failover diagnostics go to
// stderr. Federated modes self-check that their fault actually engaged
// (injected faults, reconnects, partitions, elections, the epoch
// advancing, deltas rebuilding the models, the stale node fencing) and
// exit 3 when the drill proved nothing.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <string>

#include "fuzzer/netfleet/federate.h"
#include "fuzzer/procfleet/coordinator.h"
#include "target/generator.h"

using namespace bigmap;
using namespace bigmap::procfleet;
using namespace bigmap::netfleet;

namespace {

using ull = unsigned long long;

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

// The per-coordinator fleet shape. A single baseline runs it with all the
// federation's workers from base seed 501; rank r of a federation runs 2
// workers from seed 501 + 2r, so the union of campaign seeds across the
// federation is exactly the baseline's set at the same total exec budget.
ProcFleetConfig make_config(const std::string& dir, u32 workers, u64 seed) {
  ProcFleetConfig fc;
  fc.num_workers = workers;
  fc.base.scheme = MapScheme::kTwoLevel;
  fc.base.map.map_size = 1u << 16;
  fc.base.map.huge_pages = false;
  fc.base.max_execs = 10000;
  fc.base.seed = seed;
  fc.base.sync_interval = 1024;
  fc.base.deterministic_timing = true;
  fc.poll_ms = 2;
  fc.stall_deadline_ms = 600;
  fc.max_restarts_per_worker = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  fc.quarantine_deaths = 0;  // equality drill: no degraded parking
  return fc;
}

// The network storm: sustained frame loss and delay on every gateway, plus
// deterministic torn-frame short writes, abrupt resets, and one partition
// per side. All seeded — the schedule replays identically.
FaultPlan make_net_storm_plan() {
  FaultPlan plan;
  // ~15% of entry frames vanish in flight; ~10% are deferred a pump.
  plan.rates.push_back(
      {FaultSite::kNetDrop, 150000, FaultRate::kAllInstances});
  plan.rates.push_back(
      {FaultSite::kNetDelay, 100000, FaultRate::kAllInstances});
  // Torn frames (write half, then die) early and mid-stream.
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 1});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 4});
  // Abrupt RSTs and one short partition, counted in records put on the
  // wire: a pair side ships ~55, so each lands mid-exchange on a live
  // link and the cut heals long before the campaign ends.
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 15});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 35});
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 45});
  return plan;
}

// The partition drill: a single long cut, no other interference, landing
// right after the opening exchange so both sides demonstrably keep fuzzing
// through it and reconcile well before the end.
FaultPlan make_partition_plan() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetPartition, 2, 10});
  return plan;
}

// The election storm: sustained frame loss and delay plus torn frames and
// abrupt resets — but NO partition. A partition outlasting
// election_timeout_ms is documented to cause a spurious election (the
// spoke cannot distinguish a cut from a dead leader); the storm stage
// proves elections survive a hostile wire, not that contract.
FaultPlan make_election_storm_plan() {
  FaultPlan plan;
  plan.rates.push_back({FaultSite::kNetDrop, 100000, FaultRate::kAllInstances});
  plan.rates.push_back(
      {FaultSite::kNetDelay, 80000, FaultRate::kAllInstances});
  plan.triggers.push_back({FaultSite::kNetShortWrite, 2, 3});
  plan.triggers.push_back({FaultSite::kNetConnReset, 2, 10});
  return plan;
}

// The leader kill: rank 0's node SIGKILLs its own process group once it
// has applied its first oracle delta (kProcKill on gateway instance 2 —
// never a worker id, the workers are 0 and 1).
FaultPlan make_leader_kill_plan() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kProcKill, 2, 0});
  return plan;
}

void print_union(const std::vector<u32>& bugs_in,
                 const std::vector<u64>& hashes_in, u64 execs,
                 bool completed) {
  std::vector<u32> bugs = bugs_in;
  std::sort(bugs.begin(), bugs.end());
  std::vector<u64> hashes = hashes_in;
  std::sort(hashes.begin(), hashes.end());
  std::printf("bug_ids:");
  for (u32 b : bugs) std::printf(" %u", b);
  std::printf("\nstack_hashes:");
  for (u64 h : hashes) std::printf(" %llx", static_cast<ull>(h));
  std::printf("\ntotal_execs: %llu\n", static_cast<ull>(execs));
  std::printf("all_completed: %d\n", completed ? 1 : 0);
  std::fflush(stdout);
}

void print_node_diag(usize rank, const HalfReport& r) {
  const LinkStats& n = r.net;
  std::fprintf(
      stderr,
      "[rank-%zu] sent=%llu recv=%llu offered=%llu novelty_filtered=%llu "
      "dups=%llu ooo=%llu rewinds=%llu connects=%llu reconnects=%llu "
      "timeouts=%llu conn_errors=%llu drops=%llu delays=%llu "
      "short_writes=%llu resets=%llu partitions=%llu partition_ms=%llu "
      "lost_to_eviction=%llu bytes_tx=%llu bytes_rx=%llu\n",
      rank, static_cast<ull>(n.records_sent),
      static_cast<ull>(n.records_received),
      static_cast<ull>(n.entries_offered),
      static_cast<ull>(n.novelty_filtered),
      static_cast<ull>(n.duplicates_dropped),
      static_cast<ull>(n.out_of_order_dropped), static_cast<ull>(n.rewinds),
      static_cast<ull>(n.connects), static_cast<ull>(n.reconnects),
      static_cast<ull>(n.heartbeat_timeouts),
      static_cast<ull>(n.conn_errors), static_cast<ull>(n.injected_drops),
      static_cast<ull>(n.injected_delays),
      static_cast<ull>(n.injected_short_writes),
      static_cast<ull>(n.injected_resets),
      static_cast<ull>(n.injected_partitions),
      static_cast<ull>(n.partition_ms_total),
      static_cast<ull>(n.lost_to_eviction), static_cast<ull>(n.bytes_sent),
      static_cast<ull>(n.bytes_received));
  std::fprintf(stderr,
               "[rank-%zu] oracle checked=%llu accepted=%llu rejected=%llu\n",
               rank, static_cast<ull>(r.oracle.checked),
               static_cast<ull>(r.oracle.accepted),
               static_cast<ull>(r.oracle.rejected));
  const FailoverStats& f = r.failover;
  std::fprintf(
      stderr,
      "[rank-%zu] epoch=%llu role=%u leader=%u elections=%llu "
      "promotions=%llu rehomes=%llu rejoins=%llu fenced=%llu "
      "handoff=%llu dups=%llu deltas_shipped=%llu deltas_applied=%llu "
      "net: d_sent=%llu d_recv=%llu resyncs=%llu resync_skipped=%llu "
      "stale_hellos=%llu ahead_seen=%llu oracle: applied_cells=%llu\n",
      rank, static_cast<ull>(f.epoch), f.role, f.leader_rank,
      static_cast<ull>(f.elections), static_cast<ull>(f.promotions),
      static_cast<ull>(f.rehomes), static_cast<ull>(f.rejoins),
      static_cast<ull>(f.fenced), static_cast<ull>(f.handoff_reoffered),
      static_cast<ull>(f.dup_suppressed), static_cast<ull>(f.deltas_shipped),
      static_cast<ull>(f.deltas_applied), static_cast<ull>(n.deltas_sent),
      static_cast<ull>(n.deltas_received), static_cast<ull>(n.resyncs_sent),
      static_cast<ull>(n.resync_skipped),
      static_cast<ull>(n.stale_hellos_dropped),
      static_cast<ull>(n.epoch_ahead_seen),
      static_cast<ull>(r.oracle.cells_applied));
}

int fail(const char* msg) {
  std::fprintf(stderr, "net_drill: %s\n", msg);
  return 3;
}

// Builds the mode's federation, runs it, prints the union, and checks that
// the mode's fault engaged.
int run_federated(const GeneratedTarget& target,
                  const std::vector<Input>& seeds, const std::string& mode,
                  const std::string& dir) {
  const bool pair = mode.rfind("pair", 0) == 0;
  const bool star = mode.rfind("star-", 0) == 0 || mode == "star";
  const bool failover = !pair && !star;
  const usize ranks = pair ? 2 : star ? 3 : 4;

  std::vector<ProcFleetConfig> nodes;
  for (usize i = 0; i < ranks; ++i) {
    nodes.push_back(
        make_config(dir + "/r" + std::to_string(i), 2, 501 + 2 * i));
    ProcFleetConfig& fc = nodes.back();
    // Fast liveness so injected failures are detected and healed well
    // within the drill's runtime.
    fc.failover.link.heartbeat_ms = 20;
    fc.failover.link.peer_timeout_ms = 400;
    fc.failover.link.reconnect_initial_ms = 5;
    fc.failover.link.reconnect_cap_ms = 100;
    // Virgin-map novelty gate on every link outside the pair modes: the
    // drill doubles as proof the oracle never costs a find.
    fc.net_virgin_oracle = !pair;
    if (failover) {
      // Stretch the campaign so the kill demonstrably lands mid-run.
      fc.base.work_per_block = 300;
      fc.failover.election_timeout_ms = 600;  // 30 heartbeats
      fc.failover.delta_interval_ms = 30;
    } else {
      fc.failover.election_timeout_ms = 0;  // the founding hub leads for good
    }
  }

  // Per-node fault schedules; each forked node uses its own copy.
  std::deque<FaultInjector> injectors;
  FederationOpts opts;
  if (mode == "pair-storm" || mode == "star-storm") {
    // Decorrelated seeds: the sides fail at different times. In the star
    // the storm rides the hub's injector (shared occurrence counters
    // across its links) plus one spoke's, so connector-side failures
    // fire too.
    for (usize i = 0; i < 2; ++i) {
      nodes[i].fault = &injectors.emplace_back(909 + i, make_net_storm_plan());
      nodes[i].failover.link.partition_ms = 300;
    }
  } else if (mode == "pair-partition") {
    // Only rank 0 cuts the link; rank 1 experiences the partition as a
    // peer timeout and keeps retrying into the void until the heal.
    nodes[0].fault = &injectors.emplace_back(911, make_partition_plan());
    nodes[0].failover.link.partition_ms = 1000;
    // Stretch the campaign so both sides keep fuzzing through the cut.
    for (ProcFleetConfig& fc : nodes) fc.base.work_per_block = 800;
  } else if (failover && mode != "star4") {
    nodes[0].fault = &injectors.emplace_back(919, make_leader_kill_plan());
    opts.resurrect = mode == "failover-stale"
                         ? FederationOpts::Resurrect::kStale
                         : FederationOpts::Resurrect::kRejoin;
    opts.resurrect_after_ms = 600;
  }
  if (mode == "failover-storm") {
    // Seeded chaos on the survivors' gateways while they detect the death
    // and elect; decorrelated seeds so the ranks fail at different times.
    for (usize i = 1; i < ranks; ++i) {
      nodes[i].fault =
          &injectors.emplace_back(920 + i, make_election_storm_plan());
    }
  }

  const FederationResult fr =
      run_federation(target.program, seeds, nodes, opts);
  if (!fr.ok) {
    std::fprintf(stderr, "net_drill: %s\n", fr.error.c_str());
    return 1;
  }
  LinkStats net;
  corpus::OracleStats oracle;
  u64 elections = 0, promotions = 0, deltas_applied = 0, max_epoch = 0;
  for (usize i = 0; i < fr.nodes.size(); ++i) {
    const HalfReport& r = fr.nodes[i];
    print_node_diag(i, r);
    net = sum_link_stats(net, r.net);
    oracle.checked += r.oracle.checked;
    oracle.rejected += r.oracle.rejected;
    elections += r.failover.elections;
    promotions += r.failover.promotions;
    deltas_applied += r.failover.deltas_applied;
    max_epoch = std::max(max_epoch, r.failover.epoch);
  }
  print_union(fr.found_bug_ids, fr.found_stack_hashes, fr.total_execs,
              fr.all_completed);

  // Self-checks: the exchange must have happened, and every chaos mode
  // must have actually hurt the federation (otherwise it proves nothing).
  if (net.records_sent == 0) return fail("no corpus exchange happened");
  const u64 injected = net.injected_drops + net.injected_delays +
                       net.injected_short_writes + net.injected_resets +
                       net.injected_partitions;
  if (mode == "pair-storm" || mode == "star-storm" ||
      mode == "failover-storm") {
    if (injected == 0) return fail("storm injected no faults");
    if (net.reconnects == 0 && !failover) {
      return fail("storm forced no reconnects");
    }
  }
  if (mode == "pair-partition" && net.injected_partitions == 0) {
    return fail("no partition was injected");
  }
  if (star) {
    if (oracle.checked == 0) return fail("the novelty oracle never engaged");
    std::fprintf(stderr, "[star] oracle_reject_ratio=%.3f\n",
                 static_cast<double>(oracle.rejected) /
                     static_cast<double>(oracle.checked));
  }
  if (!failover) return fr.all_completed ? 0 : 1;

  if (deltas_applied == 0) return fail("delta sync never engaged");
  if (mode == "star4") {
    if (elections != 0 || max_epoch != 1) {
      std::fprintf(stderr, "net_drill: clean run elected (epoch=%llu)\n",
                   static_cast<ull>(max_epoch));
      return 3;
    }
    return fr.all_completed ? 0 : 1;
  }
  if (elections == 0 || promotions == 0 || max_epoch < 2) {
    std::fprintf(stderr,
                 "net_drill: the kill forced no election "
                 "(elections=%llu promotions=%llu epoch=%llu)\n",
                 static_cast<ull>(elections), static_cast<ull>(promotions),
                 static_cast<ull>(max_epoch));
    return 3;
  }
  const FailoverStats& victim = fr.nodes[0].failover;
  if (mode == "failover-stale") {
    // The resurrected stale leader must have latched fenced (role 3),
    // never rejoining — and still completed its local budget.
    if (victim.fenced != 1 || victim.role != 3) {
      std::fprintf(stderr,
                   "net_drill: stale leader not fenced "
                   "(fenced=%llu role=%u)\n",
                   static_cast<ull>(victim.fenced), victim.role);
      return 3;
    }
  } else if (victim.rejoins == 0 || victim.epoch < 2 || victim.fenced != 0) {
    // Rejoin modes: the victim must have re-entered the NEW epoch.
    std::fprintf(stderr,
                 "net_drill: victim never rejoined "
                 "(rejoins=%llu epoch=%llu)\n",
                 static_cast<ull>(victim.rejoins),
                 static_cast<ull>(victim.epoch));
    return 3;
  }
  return fr.all_completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  static const char* const kModes[] = {
      "single",      "pair",      "pair-storm",    "pair-partition",
      "single-wide", "star",      "star-storm",    "single-8",
      "star4",       "failover-kill", "failover-stale", "failover-storm"};
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  const bool known = std::find(std::begin(kModes), std::end(kModes), mode) !=
                     std::end(kModes);
  if (!known || dir.empty()) {
    for (const char* m : kModes) {
      std::fprintf(stderr, "%s net_drill %s <dir>\n",
                   m == kModes[0] ? "usage:" : "      ", m);
    }
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  if (mode.rfind("single", 0) == 0) {
    const u32 workers = mode == "single" ? 4 : mode == "single-wide" ? 6 : 8;
    ProcFleetConfig fc = make_config(dir, workers, 501);
    if (workers == 8) fc.base.work_per_block = 300;
    ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
    print_union(r.found_bug_ids, r.found_stack_hashes, r.total_execs,
                r.all_completed());
    return r.all_completed() ? 0 : 1;
  }
  return run_federated(target, seeds, mode, dir);
}
