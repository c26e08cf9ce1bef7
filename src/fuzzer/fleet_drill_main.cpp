// fleet_drill: driver for the multi-process chaos drill
// (scripts/fleet_chaos_drill.sh). Modes over one fixed fleet configuration
// (4 worker processes, planted-bug target, deterministic timing):
//
//   fleet_drill baseline <dir>    chaos-free process fleet — the reference
//                                 crash union and exec total
//   fleet_drill storm <dir>       seeded kill/stall storm: SIGKILL-self,
//                                 SIGSTOP-stall (hang-killed), exit mid
//                                 publish, mmap-fail attach, in-campaign
//                                 instance kill — the fleet must converge
//                                 to exactly the baseline output
//   fleet_drill storm-run <dir>   the storm, with the *coordinator*
//                                 SIGKILLing itself once the workers'
//                                 summed execs reach kKillAfterExecs
//                                 (prints its pid)
//   fleet_drill resume <dir>      relaunch after the coordinator kill;
//                                 replays the fleet journal and finishes
//
// Every mode prints sorted found_bug_ids / found_stack_hashes and
// total_execs in a diff-friendly format; the drill passes when storm and
// resume outputs match the baseline exactly (find-union semantics and the
// exec budget survive any combination of worker and coordinator deaths).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stop_token>
#include <string>
#include <thread>

#include "fuzzer/procfleet/coordinator.h"
#include "target/generator.h"
#include "telemetry/sink.h"

using namespace bigmap;
using namespace bigmap::procfleet;

namespace {

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

ProcFleetConfig make_config(const std::string& dir) {
  ProcFleetConfig fc;
  fc.num_workers = 4;
  fc.base.scheme = MapScheme::kTwoLevel;
  fc.base.map.map_size = 1u << 16;
  fc.base.map.huge_pages = false;
  fc.base.max_execs = 10000;
  fc.base.seed = 501;
  fc.base.sync_interval = 1024;
  fc.base.deterministic_timing = true;
  fc.poll_ms = 2;
  fc.stall_deadline_ms = 600;
  fc.max_restarts_per_worker = 10;
  fc.backoff_initial_ms = 5;
  fc.backoff_cap_ms = 50;
  fc.checkpoint_interval = 512;
  fc.persist_dir = dir;
  // Quarantine stays off in the equality drill: parking a worker loses its
  // post-checkpoint finds by design (degraded mode), which would break the
  // exact find-union comparison the drill asserts.
  fc.quarantine_deaths = 0;
  return fc;
}

// storm-run's coordinator kills itself once the workers' summed execs, as
// their shm heartbeats report them, reach this many (of the 40000 budget):
// four checkpoint intervals per worker on average, so every worker has
// durable state, and most of the budget is left for the resume. Counted by
// progress, so the kill lands mid-run on any host, however fast.
constexpr u64 kKillAfterExecs = 4 * 4 * 512;

u64 fleet_execs(const telemetry::FleetTelemetry& fleet) {
  u64 n = 0;
  for (u32 i = 0; i < fleet.num_instances(); ++i) {
    n += fleet.instance(i).execs.get();
  }
  return n;
}

// The storm: every process-level chaos site fires at least once, plus an
// in-campaign instance kill, spread across different workers. All
// deterministic triggers, so the drill replays identically from the seed.
FaultPlan make_storm_plan() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 800});
  plan.triggers.push_back({FaultSite::kProcKill, 1, 2});
  plan.triggers.push_back({FaultSite::kProcStall, 2, 5});
  plan.triggers.push_back({FaultSite::kProcExitMidPublish, 3, 3});
  // Worker 3's *second* attach (its restart after the mid-publish death)
  // is refused, exercising the shm-failure triage path too.
  plan.triggers.push_back({FaultSite::kMmapFail, 3, 1});
  plan.hang_ms = 20;
  return plan;
}

void print_result(const ProcFleetResult& r) {
  std::vector<u32> bugs = r.found_bug_ids;
  std::sort(bugs.begin(), bugs.end());
  std::vector<u64> hashes = r.found_stack_hashes;
  std::sort(hashes.begin(), hashes.end());

  std::printf("bug_ids:");
  for (u32 b : bugs) std::printf(" %u", b);
  std::printf("\nstack_hashes:");
  for (u64 h : hashes) std::printf(" %llx", static_cast<unsigned long long>(h));
  std::printf("\ntotal_execs: %llu\n",
              static_cast<unsigned long long>(r.total_execs));
  std::printf("all_completed: %d\n", r.all_completed() ? 1 : 0);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  const bool known = mode == "baseline" || mode == "storm" ||
                     mode == "storm-run" || mode == "resume";
  if (!known || dir.empty()) {
    std::fprintf(stderr,
                 "usage: fleet_drill baseline <fleet-dir>\n"
                 "       fleet_drill storm <fleet-dir>\n"
                 "       fleet_drill storm-run <fleet-dir>\n"
                 "       fleet_drill resume <fleet-dir>\n");
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  ProcFleetConfig fc = make_config(dir);
  FaultInjector storm(77, make_storm_plan());
  if (mode != "baseline") {
    fc.fault = &storm;
    fc.chaos_check_interval = 64;
  }
  if (mode == "resume") fc.resume = true;
  telemetry::FleetTelemetry fleet(fc.num_workers);
  std::jthread killer;  // after `fleet`: joined before fleet is destroyed
  if (mode == "storm-run") {
    fc.telemetry = &fleet;
    std::printf("running: pid %d dir %s\n", static_cast<int>(getpid()),
                dir.c_str());
    std::fflush(stdout);
    // SIGKILL, not exit: nothing gets to flush or unwind, exactly as if
    // the host had pulled the coordinator. A fleet that finishes first is
    // not killed, so the drill script's "finished before the kill" guard
    // sees it. Forked workers inherit no copy of this thread.
    killer = std::jthread([&fleet](std::stop_token stop) {
      while (!stop.stop_requested() && fleet_execs(fleet) < kKillAfterExecs) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!stop.stop_requested()) kill(getpid(), SIGKILL);
    });
  }

  ProcFleetResult r = run_process_fleet(target.program, seeds, fc);
  killer.request_stop();
  if (killer.joinable()) killer.join();
  std::printf("resumed: %d\n", r.resumed ? 1 : 0);
  print_result(r);
  return r.all_completed() ? 0 : 1;
}
