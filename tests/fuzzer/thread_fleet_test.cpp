// Tests for thread fleets: the fleet policy core (fuzzer/fleet.h) driving
// std::thread workers. The suite keeps its historical SupervisorTest name.
//
// The key property: under a deterministic fault schedule that kills/stalls
// workers mid-run, the fleet restarts them and the unioned found_bug_ids /
// found_stack_hashes equal the fault-free run's on the same seed. The
// target is sized so every worker saturates the (small) planted-bug set
// well within its budget, which makes the union comparison robust to
// sync-import interleaving.
#include "fuzzer/fleet.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "target/generator.h"

namespace bigmap {
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
  sc.stall_deadline_ms = 400;
  sc.max_restarts_per_worker = 3;
  sc.backoff_initial_ms = 5;
  sc.backoff_cap_ms = 50;
  sc.sync_max_records = 1u << 14;
  sc.sync_max_input_size = 1u << 16;
  sc.checkpoint_interval = 2048;
  return sc;
}

TEST(SupervisorTest, FaultFreeRunCompletesAllInstances) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  FleetConfig sc = make_config();

  auto r = run_thread_fleet(target.program, seeds, sc);
  ASSERT_EQ(r.workers.size(), 4u);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_restarts, 0u);
  EXPECT_EQ(r.total_execs, 4u * sc.base.max_execs);
  EXPECT_GT(r.aggregate_throughput, 0.0);
  for (const WorkerHealth& h : r.workers) {
    EXPECT_EQ(h.attempts, 1u) << h.id;
    EXPECT_EQ(h.state, WorkerState::kCompleted) << h.id;
    EXPECT_EQ(h.execs, sc.base.max_execs) << h.id;
  }
  // Budget is sized to saturate the planted-bug set (3 bugs).
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
  EXPECT_GE(r.found_stack_hashes.size(), 3u);
  EXPECT_GT(r.sync.total_published, 0u);
}

// Kill one worker and stall another mid-run; the fleet must restart both
// and the crash union must match the fault-free run on the same seeds.
TEST(SupervisorTest, KilledAndStalledInstancesRecoverWithoutLosingFinds) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FleetConfig baseline_cfg = make_config();
  auto baseline = run_thread_fleet(target.program, seeds, baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  // Instance 1 dies outright at its 2000th execution attempt; instance 2
  // wedges for far longer than the watchdog deadline at its 2500th.
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kTransientHang, 2, 2500});
  plan.hang_ms = 5000;
  FaultInjector inj(77, plan);

  FleetConfig sc = make_config();
  sc.stall_deadline_ms = 150;
  sc.fault = &inj;
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_GE(r.workers[1].kills, 1u);
  EXPECT_GE(r.workers[1].restarts, 1u);
  EXPECT_GE(r.workers[2].hang_kills, 1u);
  EXPECT_GE(r.workers[2].restarts, 1u);
  EXPECT_GE(r.total_restarts, 2u);
  // A cold restart opens a new budget segment charged with everything the
  // dead attempt consumed, so a flapping instance cannot exceed the
  // fleet's configured total: the faulted run's exec count is exactly the
  // fault-free one's.
  EXPECT_EQ(r.total_execs, baseline.total_execs);

  EXPECT_EQ(r.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(r.found_stack_hashes, baseline.found_stack_hashes);

  EXPECT_GE(r.faults_injected, 2u);
  EXPECT_EQ(r.faults_survived, r.faults_injected);
}

// RAII temp directory for persistence tests.
struct TempDir {
  explicit TempDir(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("bigmap_sup_") + tag + "_" +
             std::to_string(static_cast<unsigned>(::getpid()))))
               .string();
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

// Satellite: warm restarts. Same kill/stall schedule as above, but with a
// persist directory the replacement attempts resume from checkpoints. The
// find union and the exec total must still match the fault-free run.
TEST(SupervisorTest, WarmRestartsRecoverFindsAtEqualBudget) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FleetConfig baseline_cfg = make_config();
  auto baseline = run_thread_fleet(target.program, seeds, baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kTransientHang, 2, 2500});
  plan.hang_ms = 5000;
  FaultInjector inj(77, plan);

  TempDir dir("warm");
  FleetConfig sc = make_config();
  // Long enough that sanitizer-slowed execs and checkpoint writes don't
  // read as stalls, short enough to catch the injected 5 s hang quickly.
  sc.stall_deadline_ms = 1000;
  sc.fault = &inj;
  sc.persist_dir = dir.path;
  sc.checkpoint_interval = 512;  // checkpoints exist before the faults fire
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_FALSE(r.resumed);
  EXPECT_GE(r.total_restarts, 2u);
  u32 warm = 0;
  for (const WorkerHealth& h : r.workers) warm += h.warm_restarts;
  EXPECT_GE(warm, 2u);
  // Warm restarts keep the segment budget, so totals stay exact.
  EXPECT_EQ(r.total_execs, baseline.total_execs);
  // Warm finds must cover the cold run's finds at equal budget.
  EXPECT_EQ(r.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(r.found_stack_hashes, baseline.found_stack_hashes);

  EXPECT_GT(r.persist.checkpoints_written, 0u);
  EXPECT_GE(r.persist.checkpoints_loaded, 1u);
  EXPECT_GT(r.persist.checkpoint_bytes, 0u);
}

// Whole-process resume. A first supervised run loses two
// instances mid-campaign with no retries left (stand-in for a SIGKILL'd
// process: the journal holds their partial accounting, the stores their
// checkpoints). A second run over the same directory with resume = true
// must finish only the interrupted instances and end with the same find
// union and exec total as an uninterrupted run.
TEST(SupervisorTest, WholeProcessResumeMatchesUninterruptedRun) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FleetConfig baseline_cfg = make_config();
  auto baseline = run_thread_fleet(target.program, seeds, baseline_cfg);
  ASSERT_TRUE(baseline.all_completed());
  ASSERT_EQ(baseline.found_bug_ids.size(), 3u);

  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 2000});
  plan.triggers.push_back({FaultSite::kInstanceKill, 2, 2500});
  FaultInjector inj(77, plan);

  TempDir dir("resume");
  FleetConfig sc = make_config();
  sc.fault = &inj;
  sc.max_restarts_per_worker = 0;  // die in place, like a dead process
  // With no retries a spurious stall is fatal, so keep the watchdog
  // deadline above sanitizer-slowed exec + checkpoint-write pauses.
  sc.stall_deadline_ms = 2000;
  sc.persist_dir = dir.path;
  sc.checkpoint_interval = 512;
  auto interrupted = run_thread_fleet(target.program, seeds, sc);
  EXPECT_FALSE(interrupted.all_completed());
  EXPECT_EQ(interrupted.workers[1].state, WorkerState::kFailed);
  EXPECT_EQ(interrupted.workers[2].state, WorkerState::kFailed);

  FleetConfig rc = make_config();
  rc.stall_deadline_ms = 2000;
  rc.persist_dir = dir.path;
  rc.resume = true;
  auto resumed = run_thread_fleet(target.program, seeds, rc);

  EXPECT_TRUE(resumed.resumed);
  EXPECT_TRUE(resumed.all_completed());
  // Only the interrupted instances ran again; completed ones were replayed
  // from the journal without a new attempt.
  EXPECT_EQ(resumed.workers[0].attempts, 1u);
  EXPECT_EQ(resumed.workers[3].attempts, 1u);
  EXPECT_GE(resumed.workers[1].attempts, 2u);
  EXPECT_GE(resumed.workers[2].attempts, 2u);
  // Find-union semantics identical to an uninterrupted run, at the same
  // total budget.
  EXPECT_EQ(resumed.total_execs, baseline.total_execs);
  EXPECT_EQ(resumed.found_bug_ids, baseline.found_bug_ids);
  EXPECT_EQ(resumed.found_stack_hashes, baseline.found_stack_hashes);
  EXPECT_GE(resumed.persist.checkpoints_loaded, 1u);
  EXPECT_GE(resumed.persist.journal_events, 1u);
}

// Resuming against a directory written by a differently configured fleet
// must be refused, not silently merged.
TEST(SupervisorTest, ResumeWithMismatchedFingerprintThrows) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  TempDir dir("fingerprint");
  FleetConfig sc = make_config();
  sc.persist_dir = dir.path;
  (void)run_thread_fleet(target.program, seeds, sc);

  FleetConfig other = make_config();
  other.persist_dir = dir.path;
  other.resume = true;
  other.base.seed = sc.base.seed + 1;  // different fleet identity
  EXPECT_THROW(run_thread_fleet(target.program, seeds, other),
               std::runtime_error);
}

TEST(SupervisorTest, AllocationFailureIsRetried) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  // First PageBuffer allocation of instance 0's first attempt fails.
  plan.triggers.push_back({FaultSite::kAllocFail, 0, 0});
  FaultInjector inj(11, plan);

  FleetConfig sc = make_config();
  sc.fault = &inj;
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.workers[0].oom_kills, 1u);
  EXPECT_EQ(r.workers[0].attempts, 2u);
  EXPECT_EQ(r.workers[0].last_error, "std::bad_alloc");
  EXPECT_EQ(r.workers[0].execs, sc.base.max_execs);
}

TEST(SupervisorTest, RetryBudgetExhaustionMarksInstanceFailed) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  // Kill instance 0 on every attempt: the occurrence counter is cumulative
  // across restarts, so spaced triggers land one per attempt.
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 100});
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 3000});
  plan.triggers.push_back({FaultSite::kInstanceKill, 0, 6000});
  FaultInjector inj(13, plan);

  FleetConfig sc = make_config();
  sc.num_workers = 2;
  sc.max_restarts_per_worker = 1;
  sc.fault = &inj;
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_FALSE(r.all_completed());
  EXPECT_EQ(r.workers[0].state, WorkerState::kFailed);
  EXPECT_EQ(r.workers[0].attempts, 2u);
  EXPECT_EQ(r.workers[0].kills, 2u);
  EXPECT_EQ(r.workers[0].last_error, "retry budget exhausted");
  EXPECT_EQ(r.workers[1].state, WorkerState::kCompleted);
  // Partial finds from the doomed instance's attempts are still unioned.
  EXPECT_GT(r.total_execs, 0u);
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
}

TEST(SupervisorTest, ExecAbortFaultsAreSurvivedInPlace) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back(
      {FaultSite::kExecAbort, /*per_million=*/20000});  // 2% of execs
  FaultInjector inj(29, plan);

  FleetConfig sc = make_config();
  sc.num_workers = 2;
  sc.fault = &inj;
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.total_restarts, 0u);
  u64 aborted = 0;
  for (const WorkerHealth& h : r.workers) aborted += h.faulted_execs;
  EXPECT_GT(aborted, 0u);
  EXPECT_EQ(r.faults_survived, r.faults_injected);
}

TEST(SupervisorTest, PublishDropsAreAccounted) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FaultPlan plan;
  plan.rates.push_back(
      {FaultSite::kPublishDrop, /*per_million=*/500000});  // 50%
  FaultInjector inj(31, plan);

  FleetConfig sc = make_config();
  sc.num_workers = 2;
  sc.fault = &inj;
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_TRUE(r.all_completed());
  EXPECT_GT(r.sync.dropped_faults, 0u);
  // Dropped publishes never cost the publisher its own triage record, so
  // the bug union is still intact.
  EXPECT_EQ(r.found_bug_ids.size(), 3u);
}

TEST(SupervisorTest, WallClockSafetyStopTerminatesRun) {
  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);

  FleetConfig sc = make_config();
  sc.num_workers = 2;
  sc.base.max_execs = 0;           // unbounded instances...
  sc.base.max_seconds = 60.0;      // ...that would run for a minute
  sc.max_wall_seconds = 0.3;       // ...cut off by the fleet
  auto r = run_thread_fleet(target.program, seeds, sc);

  EXPECT_LT(r.wall_seconds, 10.0);
  ASSERT_EQ(r.workers.size(), 2u);
  for (const WorkerHealth& h : r.workers) {
    EXPECT_EQ(h.state, WorkerState::kFailed) << h.id;
    EXPECT_EQ(h.last_error, "fleet wall-clock limit") << h.id;
  }
  EXPECT_GT(r.total_execs, 0u);
}

}  // namespace
}  // namespace bigmap
