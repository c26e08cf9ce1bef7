// resume_drill: driver for the whole-process crash-recovery drill
// (scripts/crash_recovery_drill.sh). Three modes over one fixed fleet
// configuration (4 instances, planted-bug target, deterministic timing):
//
//   resume_drill baseline            fault-free run, no persistence — the
//                                    reference crash union and exec total
//   resume_drill run <dir>           fresh persisted run that SIGKILLs its
//                                    own process once the fleet has
//                                    committed kKillAfterCheckpoints
//   resume_drill resume <dir>        relaunch after the kill; replays the
//                                    fleet journal and finishes the budget
//
// Every mode prints the sorted found_bug_ids / found_stack_hashes and
// total_execs in a diff-friendly format; the drill passes when the resume
// output matches the baseline exactly (find-union semantics and the exec
// budget both survive the kill).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <stop_token>
#include <thread>

#include "fuzzer/fleet.h"
#include "target/generator.h"
#include "telemetry/sink.h"

using namespace bigmap;

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

FleetConfig make_config() {
  FleetConfig sc;
  sc.num_workers = 4;
  sc.base.scheme = MapScheme::kTwoLevel;
  sc.base.map.map_size = 1u << 16;
  sc.base.map.huge_pages = false;
  sc.base.max_execs = 10000;
  sc.base.seed = 501;
  sc.base.sync_interval = 1024;
  sc.base.deterministic_timing = true;
  sc.poll_ms = 2;
  sc.stall_deadline_ms = 2000;
  sc.max_restarts_per_worker = 3;
  sc.backoff_initial_ms = 5;
  sc.backoff_cap_ms = 50;
  sc.sync_max_records = 1u << 14;
  sc.sync_max_input_size = 1u << 16;
  sc.checkpoint_interval = 512;
  return sc;
}

// The run mode kills itself once this many checkpoints are committed across
// the fleet (of the ~78 a full run commits): late enough that every
// instance has durable state, early enough that most of the budget is left
// for the resume. Counted by progress, so the kill lands mid-run on any
// host, however fast.
constexpr u64 kKillAfterCheckpoints = 8;

u64 checkpoints_committed(const telemetry::FleetTelemetry& fleet) {
  u64 n = 0;
  for (u32 i = 0; i < fleet.num_instances(); ++i) {
    n += fleet.instance(i).checkpoints_written.get();
  }
  return n;
}

void print_result(const FleetResult& r) {
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
  if (mode == "baseline") {
    // no persistence: pure reference run
  } else if ((mode == "run" || mode == "resume") && !dir.empty()) {
    // persisted modes need the fleet directory
  } else {
    std::fprintf(stderr,
                 "usage: resume_drill baseline\n"
                 "       resume_drill run <fleet-dir>\n"
                 "       resume_drill resume <fleet-dir>\n");
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  FleetConfig sc = make_config();
  if (mode != "baseline") sc.persist_dir = dir;
  if (mode == "resume") sc.resume = true;
  telemetry::FleetTelemetry fleet(sc.num_workers);
  std::jthread killer;  // after `fleet`: joined before fleet is destroyed
  if (mode == "run") {
    sc.telemetry = &fleet;
    std::printf("running: pid %d dir %s\n", static_cast<int>(getpid()),
                dir.c_str());
    std::fflush(stdout);
    // SIGKILL, not exit: nothing gets to flush or unwind, exactly as if
    // the host had pulled the process. A fleet that finishes first is not
    // killed, so the drill script's "finished before the kill" guard sees
    // it.
    killer = std::jthread([&fleet](std::stop_token stop) {
      while (!stop.stop_requested() &&
             checkpoints_committed(fleet) < kKillAfterCheckpoints) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!stop.stop_requested()) kill(getpid(), SIGKILL);
    });
  }

  FleetResult r = run_thread_fleet(target.program, seeds, sc);
  killer.request_stop();
  if (killer.joinable()) killer.join();
  std::printf("resumed: %d\n", r.resumed ? 1 : 0);
  print_result(r);
  return r.all_completed() ? 0 : 1;
}
