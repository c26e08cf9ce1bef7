// Policy tests for the fleet core (fuzzer/fleet.h) over a scripted
// in-memory backend: no fork, no threads, no campaigns. Each worker plays
// a script of attempts, so restart, backoff, quarantine, redistribution
// and stop decisions are pinned in milliseconds and independently of any
// real worker's timing.
#include "fuzzer/fleet.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "util/timing.h"

namespace bigmap {
namespace {

constexpr u64 kFull = ~0ull;  // "the launch's whole segment budget"

// One scripted attempt.
struct Attempt {
  enum Kind {
    kExit,             // ends at the first poll with `cause`
    kLaunchFails,      // the backend cannot start it
    kRunUntilStopped,  // makes progress until stopped, then exits cleanly
    kWedge,            // never progresses; exits cleanly once stopped
  };
  Kind kind = kExit;
  ExitCause cause = ExitCause::kClean;
  bool has_result = true;
  u64 execs = kFull;
};

Attempt dies(ExitCause cause = ExitCause::kInjectedKill) {
  Attempt a;
  a.cause = cause;
  a.has_result = false;
  return a;
}

// What the backend saw; owned by the test, since the core destroys the
// backend before it returns.
struct BackendLog {
  std::vector<LaunchSpec> launches;
  std::vector<u64> launch_ns;
  u32 hard_stops = 0;
};

class ScriptedBackend final : public WorkerBackend {
 public:
  ScriptedBackend(std::vector<std::deque<Attempt>> scripts, BackendLog& log)
      : log_(log),
        scripts_(std::move(scripts)),
        hub_(static_cast<u32>(scripts_.size())),
        running_(scripts_.size()),
        progress_(scripts_.size(), 0),
        stopped_(scripts_.size(), false) {}

  bool launch(const LaunchSpec& spec, std::string* error) override {
    log_.launches.push_back(spec);
    log_.launch_ns.push_back(monotonic_ns());
    Attempt a;  // a script that ran out completes its segment
    if (!scripts_[spec.id].empty()) {
      a = scripts_[spec.id].front();
      scripts_[spec.id].pop_front();
    }
    if (a.kind == Attempt::kLaunchFails) {
      *error = "scripted launch failure";
      return false;
    }
    if (a.execs == kFull) a.execs = spec.segment_execs;
    running_[spec.id] = a;
    progress_[spec.id] = 0;
    stopped_[spec.id] = false;
    return true;
  }

  std::optional<WorkerExit> poll_exit(u32 id) override {
    const Attempt& a = running_[id];
    if (a.kind != Attempt::kExit && !stopped_[id]) return std::nullopt;
    WorkerExit ex;
    ex.cause = a.cause;
    ex.has_result = a.has_result;
    ex.result.execs = a.kind == Attempt::kExit ? a.execs : progress_[id];
    return ex;
  }

  u64 progress(u32 id) override {
    if (running_[id].kind == Attempt::kRunUntilStopped) ++progress_[id];
    return progress_[id];
  }
  void stop(u32 id) override { stopped_[id] = true; }
  void hard_stop(u32 id) override {
    ++log_.hard_stops;
    stopped_[id] = true;
  }
  void grow_budget(u32 /*id*/, u64 /*segment_execs*/) override {}
  SyncEndpoint& hub() override { return hub_; }


 private:
  BackendLog& log_;
  std::vector<std::deque<Attempt>> scripts_;
  SyncHub hub_;
  std::vector<Attempt> running_;
  std::vector<u64> progress_;
  std::vector<bool> stopped_;
};

FleetConfig policy_config(u32 workers) {
  FleetConfig c;
  c.num_workers = workers;
  c.base.max_execs = 100;
  c.poll_ms = 1;
  c.stall_deadline_ms = 10000;
  c.max_restarts_per_worker = 3;
  c.backoff_initial_ms = 1;
  c.backoff_multiplier = 2.0;
  c.backoff_cap_ms = 4;
  return c;
}

// Runs the core over a scripted backend that records into `log`.
FleetResult run_scripted(const FleetConfig& c, BackendLog& log,
                         std::vector<std::deque<Attempt>> scripts) {
  return run_fleet(c, "fleet_policy_test", [&] {
    return std::make_unique<ScriptedBackend>(std::move(scripts), log);
  });
}

TEST(FleetPolicyTest, BackoffGrowsGeometricallyUpToTheCap) {
  FleetConfig c = policy_config(1);
  c.backoff_initial_ms = 2;
  c.backoff_multiplier = 3.0;
  c.backoff_cap_ms = 10;
  EXPECT_EQ(fleet_backoff_ns(c, 1), 2'000'000u);
  EXPECT_EQ(fleet_backoff_ns(c, 2), 6'000'000u);
  EXPECT_EQ(fleet_backoff_ns(c, 3), 10'000'000u);  // 18 ms, capped
  EXPECT_EQ(fleet_backoff_ns(c, 4), 10'000'000u);

  // Three deaths, then a clean attempt: each relaunch waits out its
  // backoff, and the fleet charges exactly the sequence's sum.
  telemetry::FleetTelemetry tel(1);
  c.telemetry = &tel;
  BackendLog log;
  const FleetResult r =
      run_scripted(c, log, {{dies(), dies(), dies(), Attempt{}}});
  ASSERT_EQ(log.launch_ns.size(), 4u);
  for (u32 k = 1; k < 4; ++k) {
    EXPECT_GE(log.launch_ns[k] - log.launch_ns[k - 1], fleet_backoff_ns(c, k))
        << k;
  }
  EXPECT_EQ(tel.backoff_ms_total().get(), 2u + 6u + 10u);
  EXPECT_EQ(tel.restarts().get(), 3u);
  EXPECT_TRUE(r.all_completed());
  EXPECT_EQ(r.workers[0].restarts, 3u);
  EXPECT_EQ(r.workers[0].kills, 3u);
  EXPECT_EQ(r.total_execs, 100u);
}

TEST(FleetPolicyTest, RetryBudgetExhaustionFailsTheWorker) {
  FleetConfig c = policy_config(2);
  c.max_restarts_per_worker = 2;
  BackendLog log;
  const FleetResult r =
      run_scripted(c, log, {{dies(), dies(), dies(), Attempt{}}, {}});
  EXPECT_FALSE(r.all_completed());
  EXPECT_EQ(r.workers[0].state, WorkerState::kFailed);
  EXPECT_EQ(r.workers[0].attempts, 3u);
  EXPECT_EQ(r.workers[0].restarts, 2u);
  EXPECT_EQ(r.workers[0].kills, 3u);
  EXPECT_EQ(r.workers[0].last_error, "retry budget exhausted");
  EXPECT_EQ(r.workers[1].state, WorkerState::kCompleted);
  EXPECT_EQ(r.total_restarts, 2u);
}

TEST(FleetPolicyTest, FailedLaunchIsAChargedAttemptNotALoop) {
  FleetConfig c = policy_config(3);
  c.max_restarts_per_worker = 2;
  Attempt no_launch;
  no_launch.kind = Attempt::kLaunchFails;
  BackendLog log;
  // Worker 0 can never be started; worker 1 once fails to start.
  const FleetResult r = run_scripted(
      c, log,
      {{no_launch, no_launch, no_launch, no_launch}, {no_launch}, {}});
  EXPECT_EQ(r.workers[0].state, WorkerState::kFailed);
  EXPECT_EQ(r.workers[0].attempts, 3u);
  EXPECT_EQ(r.workers[0].restarts, 2u);
  EXPECT_EQ(r.workers[0].error_exits, 3u);
  EXPECT_EQ(r.workers[0].last_error, "scripted launch failure");
  EXPECT_EQ(r.workers[0].execs, 0u);

  EXPECT_EQ(r.workers[1].state, WorkerState::kCompleted);
  EXPECT_EQ(r.workers[1].attempts, 2u);
  EXPECT_EQ(r.workers[1].restarts, 1u);
  EXPECT_EQ(r.workers[1].execs, 100u);
  EXPECT_EQ(r.workers[2].attempts, 1u);
}

TEST(FleetPolicyTest, QuarantineWindowSlides) {
  FleetConfig c = policy_config(1);
  c.quarantine_deaths = 2;
  // Deaths 20 ms apart never share a 5 ms window: old deaths slide out,
  // so the worker burns retries instead of being parked...
  c.backoff_initial_ms = 20;
  c.backoff_cap_ms = 20;
  c.quarantine_window_ms = 5;
  BackendLog log;
  FleetResult r = run_scripted(c, log, {{dies(), dies(), dies(), Attempt{}}});
  EXPECT_EQ(r.quarantined, 0u);
  EXPECT_EQ(r.workers[0].state, WorkerState::kCompleted);
  EXPECT_EQ(r.workers[0].restarts, 3u);

  // ...while a window that holds two deaths parks it at the second.
  c.quarantine_window_ms = 60000;
  r = run_scripted(c, log, {{dies(), dies(), dies(), Attempt{}}});
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.workers[0].state, WorkerState::kQuarantined);
  EXPECT_EQ(r.workers[0].attempts, 2u);
  EXPECT_EQ(r.workers[0].last_error, "quarantined");
  // Nobody was left to absorb the parked budget.
  EXPECT_EQ(r.unassigned_budget, 100u);
}

TEST(FleetPolicyTest, QuarantinedBudgetReopensCompletedWorkers) {
  FleetConfig c = policy_config(3);
  c.quarantine_deaths = 2;
  c.quarantine_window_ms = 60000;
  BackendLog log;
  // Workers 0 and 2 complete at once; worker 1 dies twice without a
  // result and is parked with nothing done.
  const FleetResult r = run_scripted(c, log, {{}, {dies(), dies()}, {}});
  EXPECT_EQ(r.quarantined, 1u);
  EXPECT_EQ(r.workers[1].state, WorkerState::kQuarantined);
  EXPECT_EQ(r.unassigned_budget, 0u);
  for (u32 id : {0u, 2u}) {
    EXPECT_EQ(r.workers[id].state, WorkerState::kCompleted) << id;
    EXPECT_EQ(r.workers[id].goal, 150u) << id;
    EXPECT_EQ(r.workers[id].execs, 150u) << id;
    // Reopened once, without a retry charge.
    EXPECT_EQ(r.workers[id].attempts, 2u) << id;
    EXPECT_EQ(r.workers[id].restarts, 0u) << id;
  }
  // Without a store the reopening is cold: a new segment owing the grant.
  ASSERT_GE(log.launches.size(), 2u);
  const LaunchSpec& reopen = log.launches.back();
  EXPECT_EQ(reopen.segment_execs, 50u);
  EXPECT_FALSE(reopen.resume);
  EXPECT_EQ(r.total_execs, 3u * c.base.max_execs);
}

TEST(FleetPolicyTest, WallClockStopReportsUnfinishedWorkersFailed) {
  FleetConfig c = policy_config(2);
  c.max_wall_seconds = 0.02;
  Attempt runs;
  runs.kind = Attempt::kRunUntilStopped;
  BackendLog log;
  const FleetResult r = run_scripted(c, log, {{runs}, {}});
  EXPECT_EQ(r.workers[0].state, WorkerState::kFailed);
  EXPECT_EQ(r.workers[0].last_error, "fleet wall-clock limit");
  EXPECT_GT(r.workers[0].execs, 0u);
  EXPECT_EQ(r.workers[0].restarts, 0u);
  EXPECT_EQ(r.workers[1].state, WorkerState::kCompleted);
  EXPECT_EQ(log.hard_stops, 0u);
}

TEST(FleetPolicyTest, CleanExitWithoutProgressBurnsRetries) {
  FleetConfig c = policy_config(2);
  c.max_restarts_per_worker = 1;
  Attempt idle;
  idle.execs = 0;  // clean, short of the goal, nothing executed
  Attempt partial;
  partial.execs = 40;  // clean and short, but it did work
  BackendLog log;
  const FleetResult r =
      run_scripted(c, log, {{idle, idle, idle}, {partial}});
  EXPECT_EQ(r.workers[0].state, WorkerState::kFailed);
  EXPECT_EQ(r.workers[0].attempts, 2u);
  EXPECT_EQ(r.workers[0].error_exits, 2u);
  EXPECT_EQ(r.workers[0].last_error, "clean exit with no progress");
  // Progress makes a short clean exit scheduled work: relaunched at once
  // against the rest of its goal, with no retry charge.
  EXPECT_EQ(r.workers[1].state, WorkerState::kCompleted);
  EXPECT_EQ(r.workers[1].attempts, 2u);
  EXPECT_EQ(r.workers[1].restarts, 0u);
  EXPECT_EQ(r.workers[1].error_exits, 0u);
  EXPECT_EQ(r.workers[1].execs, 100u);
}

TEST(FleetPolicyTest, StalledWorkerIsHardStoppedAndTriagedAsHang) {
  FleetConfig c = policy_config(1);
  c.stall_deadline_ms = 5;
  Attempt wedge;
  wedge.kind = Attempt::kWedge;
  BackendLog log;
  const FleetResult r = run_scripted(c, log, {{wedge}});
  EXPECT_EQ(log.hard_stops, 1u);
  EXPECT_EQ(r.workers[0].hang_kills, 1u);
  EXPECT_EQ(r.workers[0].restarts, 1u);
  EXPECT_EQ(r.workers[0].state, WorkerState::kCompleted);
  EXPECT_EQ(r.total_execs, 100u);
}

}  // namespace
}  // namespace bigmap
