#include "fuzzer/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <iterator>
#include <new>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <unordered_set>
#include <utility>

#include "util/timing.h"

namespace bigmap {
namespace {

// Per-worker supervision state, core side; backends keep their own.
struct Slot {
  enum class Phase { kPending, kRunning, kFinished };

  u32 id = 0;
  Phase phase = Phase::kPending;

  // Budget-segment accounting. An attempt's counters are relative to its
  // *segment*: a cold (re)start opens a new segment (`base` absorbs
  // everything charged so far), while a warm restart resumes the same
  // segment from a checkpoint (the restored counters already continue it).
  // health = base + latest attempt's counters. `goal` is the worker's whole
  // budget (grown by quarantine grants); the segment owes goal - base.
  u64 goal = 0;
  SegmentCounters base;
  bool resume_next = false;     // next attempt restores from checkpoint
  bool prime_sink = false;      // next attempt re-primes a fresh sink

  bool hard_stop_sent = false;  // heartbeat deadline (or ignored stop)
  bool wall_stopped = false;
  // Hard-stop escalation for an ignored wall-clock stop (0 = none asked).
  u64 stop_deadline_ns = 0;
  u64 last_progress = 0;
  u64 last_progress_ns = 0;
  u64 next_start_ns = 0;
  // Execs when the current attempt launched; a clean-but-short exit that
  // did not move this is a stuck worker, not scheduled work.
  u64 execs_at_launch = 0;

  // High-water marks of what has been fed to this worker's sink, so
  // heartbeat samples and exit reports never double count.
  SegmentCounters fed;

  // Monotonic timestamps of recent abnormal deaths (quarantine window).
  std::deque<u64> death_times;

  WorkerHealth health;

  u64 segment_execs() const noexcept {
    return goal != 0 ? goal - base.execs : 0;
  }
};

SegmentCounters counters_of(const WorkerHealth& h) {
  return {h.execs, h.interesting, h.crashes_total, h.faulted_execs,
          h.injected_hangs};
}

void set_counters(WorkerHealth& h, const SegmentCounters& base,
                  const SegmentCounters& segment) {
  h.execs = base.execs + segment.execs;
  h.interesting = base.interesting + segment.interesting;
  h.crashes_total = base.crashes_total + segment.crashes_total;
  h.faulted_execs = base.faulted_execs + segment.faulted_execs;
  h.injected_hangs = base.injected_hangs + segment.injected_hangs;
}

// What each abnormal exit counts: its WorkerHealth counter, the registry
// counter under the backend's prefix, the error it records, and the
// FleetTelemetry lifecycle counter it bumps. Indexed by ExitCause.
struct CauseInfo {
  u32 WorkerHealth::*count;
  const char* counter;
  const char* error;
  telemetry::Counter& (telemetry::FleetTelemetry::*fleet_counter)();
};
constexpr CauseInfo kCauses[] = {
    {nullptr, nullptr, nullptr, nullptr},  // kClean
    {&WorkerHealth::kills, "injected_kills", nullptr,
     &telemetry::FleetTelemetry::kills},
    {&WorkerHealth::oom_kills, "oom_kills", "std::bad_alloc",
     &telemetry::FleetTelemetry::alloc_failures},
    {&WorkerHealth::shm_failures, "shm_failures",
     "shm attach/validate failed", nullptr},
    {&WorkerHealth::error_exits, "mid_publish_exits", "died mid-publish",
     nullptr},
    {&WorkerHealth::error_exits, "error_exits", nullptr, nullptr},  // kError
    {&WorkerHealth::crash_signals, "crash_signals", nullptr, nullptr},
    {&WorkerHealth::hang_kills, "hang_kills",
     "hang-killed after heartbeat stall", &telemetry::FleetTelemetry::stalls},
    {&WorkerHealth::error_exits, "no_progress_exits",
     "clean exit with no progress", nullptr},
};
static_assert(std::size(kCauses) ==
              static_cast<usize>(ExitCause::kNoProgress) + 1);

constexpr const char* kWallStopError = "fleet wall-clock limit";
// Journal final_state of each WorkerState.
constexpr u32 kFinalEvent[] = {persist::kEventCompleted, persist::kEventFailed,
                               persist::kEventQuarantined};

}  // namespace

persist::FleetFingerprint fleet_fingerprint(const FleetConfig& config) {
  persist::FleetFingerprint fp;
  fp.num_instances = config.num_workers;
  fp.base_seed = config.base.seed;
  fp.seed_stride = config.instance_seed_stride;
  fp.max_execs = config.base.max_execs;
  fp.scheme = static_cast<u32>(config.base.scheme);
  fp.metric = static_cast<u32>(config.base.metric);
  fp.map_size = static_cast<u64>(config.base.map.map_size);
  return fp;
}

u64 fleet_backoff_ns(const FleetConfig& config, u32 restarts_done) {
  double ms = static_cast<double>(config.backoff_initial_ms);
  for (u32 i = 1; i < restarts_done; ++i) ms *= config.backoff_multiplier;
  ms = std::min(ms, static_cast<double>(config.backoff_cap_ms));
  return static_cast<u64>(ms * 1e6);
}

FleetResult run_fleet(const FleetConfig& config, const char* who,
                      const BackendFactory& make_backend) {
  FleetResult out;
  if (config.num_workers == 0) return out;
  telemetry::FleetTelemetry* fleet = config.telemetry;
  if (fleet != nullptr && fleet->num_instances() < config.num_workers) {
    throw std::invalid_argument(
        std::string(who) + ": FleetTelemetry has " +
        std::to_string(fleet->num_instances()) + " sinks for " +
        std::to_string(config.num_workers) + " workers");
  }
  if (fleet != nullptr && config.fault != nullptr) {
    // Fault-injection runs become observable in the same scrape.
    config.fault->set_registry(&fleet->registry());
  }

  // Open (or resume) the store before any worker starts so a fingerprint
  // mismatch fails fast, and materialize every instance store: on a fresh
  // open that wipes stale snapshot directories, so no worker can resurrect
  // a previous fleet's state.
  std::unique_ptr<persist::FleetStore> store;
  if (!config.persist_dir.empty()) {
    store = std::make_unique<persist::FleetStore>(
        config.persist_dir, fleet_fingerprint(config),
        persist::FaultCtx{config.fault, 0}, config.resume);
    if (!store->ok()) {
      throw std::runtime_error(std::string(who) + ": " + store->error());
    }
    out.resumed = store->resumed();
    for (u32 id = 0; id < config.num_workers; ++id) {
      (void)store->instance_store(id);
    }
  }

  const std::unique_ptr<WorkerBackend> backend = make_backend();
  const bool feed_sinks = fleet != nullptr && !backend->workers_feed_sinks();
  const char* prefix = backend->counter_prefix();

  const u64 start_ns = monotonic_ns();
  const u64 stall_ns = static_cast<u64>(config.stall_deadline_ms) * 1000000;
  const u64 window_ns =
      static_cast<u64>(config.quarantine_window_ms) * 1000000;

  std::vector<Slot> slots(config.num_workers);
  for (u32 id = 0; id < config.num_workers; ++id) {
    slots[id].id = id;
    slots[id].health.id = id;
    slots[id].goal = config.base.max_execs;
  }

  std::unordered_set<u32> bug_union;
  std::unordered_set<u64> stack_union;
  // Exec budget freed by quarantined workers, not yet granted out.
  u64 budget_pool = 0;

  auto bump = [&](const std::string& name, u64 n = 1) {
    if (fleet != nullptr && prefix != nullptr) {
      fleet->registry().counter(prefix + name).add(n);
    }
  };

  // Feeds the counters' growth past the high-water marks into the sink.
  auto feed_sink = [&](Slot& s, const SegmentCounters& v) {
    if (fleet == nullptr) return;
    telemetry::TelemetrySink& sink = fleet->instance(s.id);
    auto feed = [](telemetry::Counter& c, u64 v, u64& mark) {
      if (v > mark) {
        c.add(v - mark);
        mark = v;
      }
    };
    feed(sink.execs, v.execs, s.fed.execs);
    feed(sink.interesting, v.interesting, s.fed.interesting);
    feed(sink.crashes, v.crashes_total, s.fed.crashes_total);
    feed(sink.faulted_execs, v.faulted_execs, s.fed.faulted_execs);
    feed(sink.injected_hangs, v.injected_hangs, s.fed.injected_hangs);
  };

  // Appends this slot's accounting to the fleet journal. Failures (real or
  // injected) are non-fatal: a future resume just sees a staler event.
  auto journal_event = [&](const Slot& s, u32 final_state) {
    if (store == nullptr) return;
    persist::InstanceEvent ev;
    ev.instance = s.id;
    ev.final_state = final_state;
    ev.attempts = s.health.attempts;
    ev.restarts = s.health.restarts;
    ev.stalls = s.health.hang_kills;
    ev.kills = s.health.kills;
    ev.alloc_failures = s.health.oom_kills;
    ev.warm_restarts = s.health.warm_restarts;
    ev.execs = s.health.execs;
    ev.interesting = s.health.interesting;
    ev.crashes_total = s.health.crashes_total;
    ev.faulted_execs = s.health.faulted_execs;
    ev.injected_hangs = s.health.injected_hangs;
    ev.base_execs = s.base.execs;
    ev.base_interesting = s.base.interesting;
    ev.base_crashes = s.base.crashes_total;
    ev.base_faulted_execs = s.base.faulted_execs;
    ev.base_injected_hangs = s.base.injected_hangs;
    ev.segment_max_execs = s.segment_execs();
    // Newest snapshot actually committed so far, so statecheck can detect
    // journal events referencing state that never made it to disk.
    ev.checkpoint_seq = store->instance_store(s.id).newest_seq_on_disk();
    std::string err;
    (void)store->append_event(ev, &err);
  };

  // Durable truth for a worker: its newest checkpoint. Unions the
  // snapshot's triage identities and returns its exec count (without a
  // store, the in-memory count is all there is).
  auto absorb_snapshot = [&](Slot& s) -> u64 {
    if (store == nullptr) return s.health.execs;
    persist::CheckpointStore::LoadOutcome lo =
        store->instance_store(s.id).load_latest();
    if (!lo.snapshot.has_value()) return 0;
    for (u32 b : lo.snapshot->bug_ids) bug_union.insert(b);
    for (u64 h : lo.snapshot->stack_hashes) stack_union.insert(h);
    s.health.interesting =
        std::max(s.health.interesting, lo.snapshot->interesting);
    s.health.crashes_total =
        std::max(s.health.crashes_total, lo.snapshot->crashes_total);
    return lo.snapshot->execs;
  };

  // Arms the next attempt: warm with a store (resume the same segment from
  // the last checkpoint), otherwise cold (open a new segment charged with
  // everything consumed so far).
  auto arm_relaunch = [&](Slot& s) {
    if (store != nullptr) {
      s.resume_next = true;
    } else {
      s.base = counters_of(s.health);
    }
  };

  // Closes the slot; `why` becomes the last error unless one is recorded.
  auto finish = [&](Slot& s, WorkerState state, const char* why = nullptr) {
    if (why != nullptr && s.health.last_error.empty()) {
      s.health.last_error = why;
    }
    s.phase = Slot::Phase::kFinished;
    s.health.state = state;
    journal_event(s, kFinalEvent[static_cast<usize>(state)]);
  };

  // Schedules the next attempt at `at_ns` and rewinds the worker's hub
  // cursor: the replacement's queue may predate records the last attempt
  // had already fetched, so it re-imports everything retained.
  auto relaunch = [&](Slot& s, u64 at_ns) {
    arm_relaunch(s);
    journal_event(s, persist::kEventRunning);
    s.next_start_ns = at_ns;
    s.phase = Slot::Phase::kPending;
    backend->hub().reset_cursor(s.id);
  };

  // Spreads the freed budget pool over every worker that can still absorb
  // it (running, pending, or completed — a completed worker is reopened
  // against its grown goal). Failed, quarantined and wall-stopped workers
  // are not eligible.
  auto redistribute_pool = [&]() {
    if (budget_pool == 0) return;
    std::vector<Slot*> eligible;
    for (Slot& s : slots) {
      if ((s.phase != Slot::Phase::kFinished ||
           s.health.state == WorkerState::kCompleted) &&
          !s.wall_stopped) {
        eligible.push_back(&s);
      }
    }
    if (eligible.empty()) {
      out.unassigned_budget += budget_pool;
      budget_pool = 0;
      return;
    }
    const u64 share = budget_pool / eligible.size();
    u64 remainder = budget_pool % eligible.size();
    budget_pool = 0;
    for (Slot* s : eligible) {
      u64 grant = share;
      if (remainder > 0) {
        ++grant;
        --remainder;
      }
      if (grant == 0) continue;
      s->goal += grant;
      bump("budget_granted", grant);
      if (s->phase == Slot::Phase::kFinished) {
        // Reopen: the worker already delivered its old goal.
        arm_relaunch(*s);
        s->phase = Slot::Phase::kPending;
        s->next_start_ns = monotonic_ns();
      } else if (s->phase == Slot::Phase::kRunning) {
        // Grow the running attempt in place: it picks the new budget up at
        // its next exec boundary. If it exits before it does, the
        // clean-but-short rule relaunches it for free instead.
        backend->grow_budget(s->id, s->segment_execs());
      }
      journal_event(*s, persist::kEventRunning);
    }
  };

  // Whole-process resume: replay the journal into the slots. Finished
  // workers stay finished (their finds come back from their final
  // snapshot); workers still owed budget resume warm from their last
  // checkpoint. A worker with no event at all died mid-first-attempt — its
  // store may still hold snapshots, so it resumes warm too (cold inside the
  // same segment if nothing usable is on disk).
  if (store != nullptr && store->resumed()) {
    for (Slot& s : slots) {
      const std::optional<persist::InstanceEvent> ev = store->last_event(s.id);
      if (!ev.has_value()) {
        s.resume_next = true;
        s.prime_sink = true;
        continue;
      }
      s.health.attempts = ev->attempts;
      s.health.restarts = ev->restarts;
      s.health.warm_restarts = ev->warm_restarts;
      s.health.hang_kills = ev->stalls;
      s.health.kills = ev->kills;
      s.health.oom_kills = ev->alloc_failures;
      set_counters(s.health, {}, {ev->execs, ev->interesting,
                                  ev->crashes_total, ev->faulted_execs,
                                  ev->injected_hangs});
      s.base = {ev->base_execs, ev->base_interesting, ev->base_crashes,
                ev->base_faulted_execs, ev->base_injected_hangs};
      if (ev->segment_max_execs != 0) {
        s.goal = s.base.execs + ev->segment_max_execs;
      }

      if (ev->final_state == persist::kEventQuarantined) {
        s.health.state = WorkerState::kQuarantined;
        s.phase = Slot::Phase::kFinished;
        ++out.quarantined;
        absorb_snapshot(s);
        feed_sink(s, counters_of(s.health));
        continue;
      }
      // Resumable: still running, or failed with budget left (the operator
      // relaunched after fixing whatever killed it).
      const bool owes_budget = s.goal == 0 || ev->execs < s.goal;
      if (ev->final_state != persist::kEventCompleted && owes_budget) {
        s.resume_next = true;
        s.prime_sink = true;
        // The resumed attempt primes its sink with the restored segment;
        // the earlier cold segments are primed here so lifetime totals
        // stay continuous.
        feed_sink(s, s.base);
        continue;
      }
      s.health.state = ev->final_state == persist::kEventCompleted
                           ? WorkerState::kCompleted
                           : WorkerState::kFailed;
      s.phase = Slot::Phase::kFinished;
      s.health.execs = std::max(s.health.execs, absorb_snapshot(s));
      feed_sink(s, counters_of(s.health));
    }
    // Re-derive any pool a quarantine freed that the previous process
    // never granted out (it died between journaling the park and the
    // grants). Quarantined workers keep only their durable execs; failed
    // workers keep their full goal — a retry-exhausted worker's budget is
    // lost, not redistributed, the same as on the live path.
    if (config.base.max_execs != 0) {
      const u64 total_budget =
          static_cast<u64>(config.num_workers) * config.base.max_execs;
      u64 assigned = 0;
      for (const Slot& s : slots) {
        assigned += s.health.state == WorkerState::kQuarantined &&
                            s.phase == Slot::Phase::kFinished
                        ? s.health.execs
                        : s.goal;
      }
      if (total_budget > assigned) {
        budget_pool = total_budget - assigned;
        redistribute_pool();
      }
    }
  }

  // Exit-status triage: bumps the cause's counters and reports whether the
  // attempt died abnormally (everything but a clean exit).
  auto triage = [&](Slot& s, const WorkerExit& ex) -> bool {
    const CauseInfo& c = kCauses[static_cast<usize>(ex.cause)];
    if (c.count == nullptr) return false;
    WorkerHealth& h = s.health;
    ++(h.*c.count);
    bump(c.counter);
    if (fleet != nullptr && c.fleet_counter != nullptr) {
      (fleet->*c.fleet_counter)().add();
    }
    if (c.error != nullptr) h.last_error = c.error;
    if (ex.cause == ExitCause::kError) h.last_error = ex.error;
    if (ex.cause == ExitCause::kSignal) {
      h.last_signal = ex.signal;
      h.last_error = "killed by signal " + std::to_string(ex.signal);
      bump("signal_" + std::to_string(ex.signal));
    }
    return true;
  };

  // Decides what follows an attempt: completed, free relaunch, restart,
  // quarantine, or give up.
  auto on_exit = [&](Slot& s, WorkerExit ex) {
    const u64 now = monotonic_ns();
    if (ex.has_result) {
      // Assign, don't add: the counters are lifetime totals of the
      // attempt's segment.
      set_counters(s.health, s.base, ex.result);
      bug_union.insert(ex.bug_ids.begin(), ex.bug_ids.end());
      stack_union.insert(ex.stack_hashes.begin(), ex.stack_hashes.end());
      if (feed_sinks) feed_sink(s, counters_of(s.health));
    }
    const bool reached =
        ex.has_result &&
        ((s.goal != 0 && s.health.execs >= s.goal) || ex.time_bound);
    if (ex.cause == ExitCause::kClean && !reached) {
      if (s.hard_stop_sent) {
        // A hard stop honoured like a cooperative one (threads) is still
        // a hang.
        ex.cause = ExitCause::kHardStopped;
      } else if (!s.wall_stopped &&
                 !(ex.has_result && s.health.execs > s.execs_at_launch)) {
        // Short of the goal without one new execution: a stuck worker
        // (e.g. restoring broken durable state in a loop) burns retry
        // budget like any other abnormal death.
        ex.cause = ExitCause::kNoProgress;
      }
    }
    const bool abnormal = triage(s, ex);

    if (s.wall_stopped) {
      // Safety stop: no replacements; an attempt cut short of its own stop
      // condition is reported as failed, not quietly completed.
      if (!abnormal && reached) {
        finish(s, WorkerState::kCompleted);
      } else {
        finish(s, WorkerState::kFailed, kWallStopError);
      }
      return;
    }
    // Budget exactness: whatever ended this attempt, a worker that has
    // delivered its whole goal owes nothing more.
    if ((!abnormal && reached) ||
        (ex.has_result && s.goal != 0 && s.health.execs >= s.goal)) {
      finish(s, WorkerState::kCompleted);
      return;
    }
    if (!abnormal) {
      // Clean, short, with progress: it finished its old goal while a
      // quarantine grant grew it. Scheduled work, not a failure: no retry
      // charge, no backoff.
      relaunch(s, now);
      return;
    }

    // Abnormal death. Slide the quarantine window.
    if (config.quarantine_deaths > 0) {
      s.death_times.push_back(now);
      while (!s.death_times.empty() &&
             now - s.death_times.front() > window_ns) {
        s.death_times.pop_front();
      }
      if (s.death_times.size() >= config.quarantine_deaths) {
        // Park it. Durable progress is whatever its last checkpoint holds;
        // the undone budget goes back to the pool.
        s.health.execs = std::max(s.health.execs, absorb_snapshot(s));
        if (feed_sinks) feed_sink(s, counters_of(s.health));
        if (s.goal > s.health.execs) budget_pool += s.goal - s.health.execs;
        ++out.quarantined;
        bump("quarantined");
        finish(s, WorkerState::kQuarantined, "quarantined");
        redistribute_pool();
        return;
      }
    }

    if (s.health.restarts >= config.max_restarts_per_worker) {
      finish(s, WorkerState::kFailed, "retry budget exhausted");
      return;
    }
    ++s.health.restarts;
    if (store != nullptr) ++s.health.warm_restarts;
    const u64 backoff = fleet_backoff_ns(config, s.health.restarts);
    relaunch(s, now + backoff);
    bump("restarts");
    if (fleet != nullptr) {
      fleet->restarts().add();
      fleet->instance(s.id).restarts.add();
      fleet->backoff_ms_total().add(backoff / 1000000);
    }
  };

  auto launch = [&](Slot& s) {
    LaunchSpec spec;
    spec.id = s.id;
    spec.segment_execs = s.segment_execs();
    spec.resume = s.resume_next;
    spec.prime_sink = s.prime_sink;
    spec.store = store != nullptr ? &store->instance_store(s.id) : nullptr;
    s.hard_stop_sent = false;
    s.stop_deadline_ns = 0;
    s.last_progress = 0;
    s.last_progress_ns = monotonic_ns();
    s.execs_at_launch = s.health.execs;
    ++s.health.attempts;
    s.phase = Slot::Phase::kRunning;
    std::string err;
    if (backend->launch(spec, &err)) {
      s.resume_next = false;
      s.prime_sink = false;
      return;
    }
    // An attempt that never started: abnormal, charged to the retry budget
    // like any other death.
    WorkerExit ex;
    ex.cause = ExitCause::kError;
    ex.error = err;
    on_exit(s, std::move(ex));
  };

  bool wall_stop_issued = false;
  u64 next_fleet_stamp_ns = start_ns;
  for (;;) {
    usize unfinished = 0;
    const u64 now = monotonic_ns();

    if (fleet != nullptr && config.fleet_stamp_ms > 0 &&
        now >= next_fleet_stamp_ns) {
      next_fleet_stamp_ns =
          now + static_cast<u64>(config.fleet_stamp_ms) * 1000000;
      fleet->stamp_fleet();
    }

    if (config.max_wall_seconds > 0.0 && !wall_stop_issued &&
        static_cast<double>(now - start_ns) * 1e-9 >
            config.max_wall_seconds) {
      wall_stop_issued = true;
      for (Slot& s : slots) {
        s.wall_stopped = true;
        if (s.phase == Slot::Phase::kRunning) {
          s.stop_deadline_ns = now + 2 * stall_ns;
          backend->stop(s.id);
        } else if (s.phase == Slot::Phase::kPending) {
          // Never started (or waiting out a backoff): give up on it.
          finish(s, WorkerState::kFailed, kWallStopError);
        }
      }
    }

    for (Slot& s : slots) {
      if (s.phase == Slot::Phase::kPending) {
        if (now >= s.next_start_ns) launch(s);
      } else if (s.phase == Slot::Phase::kRunning) {
        if (std::optional<WorkerExit> ex = backend->poll_exit(s.id)) {
          on_exit(s, std::move(*ex));
        } else {
          const u64 p = backend->progress(s.id);
          if (p != s.last_progress) {
            s.last_progress = p;
            s.last_progress_ns = now;
            // The heartbeat is the segment's exec count. Clamped to the
            // segment: a campaign also ticks it once per checkpoint (so a
            // slow save is not mistaken for a stall), and those ticks must
            // not inflate exec totals.
            const u64 seg = s.segment_execs();
            if (feed_sinks) {
              SegmentCounters beat = s.fed;
              beat.execs = s.base.execs + (seg != 0 ? std::min(p, seg) : p);
              feed_sink(s, beat);
            }
          } else if (!s.hard_stop_sent &&
                     (now - s.last_progress_ns > stall_ns ||
                      (s.stop_deadline_ns != 0 && now >= s.stop_deadline_ns))) {
            // Heartbeat deadline, or an ignored wall-clock stop. Triage
            // happens when the attempt is reaped.
            s.hard_stop_sent = true;
            backend->hard_stop(s.id);
          }
        }
      }
      if (s.phase != Slot::Phase::kFinished) ++unfinished;
    }

    backend->pump(now);
    if (unfinished == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }

  backend->finish(out);
  out.wall_seconds = static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
  out.workers.reserve(slots.size());
  for (Slot& s : slots) {
    // Durable truth for everyone: the final snapshot carries the triage
    // identities (and, for workers that never handed over a clean result,
    // the exec count that will actually resume).
    const u64 durable = absorb_snapshot(s);
    if (s.health.state != WorkerState::kCompleted) {
      s.health.execs = std::max(s.health.execs, durable);
    }
    s.health.goal = s.goal;
    if (config.fault != nullptr) {
      s.health.faults_injected = config.fault->injected_for(s.id);
      out.faults_injected += s.health.faults_injected;
      if (s.health.state == WorkerState::kCompleted) {
        out.faults_survived += s.health.faults_injected;
      }
    }
    out.total_execs += s.health.execs;
    out.total_interesting += s.health.interesting;
    out.total_crashes += s.health.crashes_total;
    out.total_restarts += s.health.restarts;
    out.workers.push_back(s.health);
  }
  out.found_bug_ids.assign(bug_union.begin(), bug_union.end());
  std::sort(out.found_bug_ids.begin(), out.found_bug_ids.end());
  out.found_stack_hashes.assign(stack_union.begin(), stack_union.end());
  std::sort(out.found_stack_hashes.begin(), out.found_stack_hashes.end());
  out.aggregate_throughput =
      out.wall_seconds > 0
          ? static_cast<double>(out.total_execs) / out.wall_seconds
          : 0.0;
  out.sync = backend->hub().stats();
  if (store != nullptr) out.persist = store->stats();
  if (fleet != nullptr) out.fleet_total = fleet->stamp_fleet();
  return out;
}

// --- thread backend ---------------------------------------------------------

namespace {

class ThreadBackend final : public WorkerBackend {
 public:
  ThreadBackend(const Program& program, const std::vector<Input>& seeds,
                const FleetConfig& config)
      : program_(program),
        seeds_(seeds),
        config_(config),
        hub_(SyncHubOptions{config.num_workers, config.sync_max_records,
                            config.sync_max_input_size}),
        workers_(config.num_workers) {
    hub_.set_fault_injector(config.fault);
  }

  ~ThreadBackend() override {
    // Only reached with threads still running when the core unwinds.
    for (Worker& w : workers_) {
      if (!w.thread.joinable()) continue;
      w.control->stop.store(true, std::memory_order_relaxed);
      w.thread.join();
    }
  }

  bool launch(const LaunchSpec& spec, std::string* error) override {
    Worker& w = workers_[spec.id];
    w.control = std::make_unique<CampaignControl>();
    w.done.store(false, std::memory_order_relaxed);
    w.exit = WorkerExit{};

    CampaignConfig c = config_.base;
    c.seed = config_.base.seed + spec.id * config_.instance_seed_stride;
    c.max_execs = spec.segment_execs;
    c.sync = &hub_;
    c.sync_id = spec.id;
    c.is_master = (spec.id == 0);
    c.control = w.control.get();
    c.fault = config_.fault;
    c.checkpoint = spec.store;
    c.checkpoint_interval = config_.checkpoint_interval;
    c.keep_checkpoints = config_.keep_checkpoints;
    c.resume_from_checkpoint = spec.resume;
    c.telemetry_restore = spec.prime_sink;
    if (config_.telemetry != nullptr) {
      c.telemetry = &config_.telemetry->instance(spec.id);
    }
    try {
      w.thread = std::thread([this, &w, c = std::move(c), id = spec.id]() {
        FaultInjector::ScopedThreadBinding bind(config_.fault, id);
        WorkerExit& ex = w.exit;
        try {
          const CampaignResult r = run_campaign(program_, seeds_, c);
          ex.cause = r.fault_aborted ? ExitCause::kInjectedKill
                                     : ExitCause::kClean;
          ex.has_result = true;
          ex.result = {r.execs, r.interesting, r.crashes_total,
                       r.faulted_execs, r.injected_hangs};
          ex.time_bound = c.max_seconds > 0.0 &&
                          r.wall_seconds >= c.max_seconds;
          ex.bug_ids = r.found_bug_ids;
          ex.stack_hashes = r.found_stack_hashes;
        } catch (const std::bad_alloc&) {
          ex.cause = ExitCause::kOom;
        } catch (const std::exception& e) {
          ex.cause = ExitCause::kError;
          ex.error = e.what();
        }
        w.done.store(true, std::memory_order_release);
      });
    } catch (const std::system_error& e) {
      *error = std::string("thread launch failed: ") + e.what();
      return false;
    }
    return true;
  }

  std::optional<WorkerExit> poll_exit(u32 id) override {
    Worker& w = workers_[id];
    if (!w.done.load(std::memory_order_acquire)) return std::nullopt;
    w.thread.join();
    return std::move(w.exit);
  }

  u64 progress(u32 id) override {
    return workers_[id].control->progress.load(std::memory_order_relaxed);
  }
  void stop(u32 id) override {
    workers_[id].control->stop.store(true, std::memory_order_relaxed);
  }
  // A thread cannot be killed; the cooperative flag is the hardest stop.
  void hard_stop(u32 id) override { stop(id); }
  void grow_budget(u32 id, u64 segment_execs) override {
    workers_[id].control->budget_override.store(segment_execs,
                                                std::memory_order_relaxed);
  }
  SyncEndpoint& hub() override { return hub_; }
  bool workers_feed_sinks() const override { return true; }

 private:
  // The worker thread writes `exit` and then sets `done` (release); the
  // core reads it only after observing `done` (acquire) and joining.
  struct Worker {
    std::unique_ptr<CampaignControl> control;
    std::thread thread;
    std::atomic<bool> done{false};
    WorkerExit exit;
  };

  const Program& program_;
  const std::vector<Input>& seeds_;
  const FleetConfig& config_;
  SyncHub hub_;
  std::deque<Worker> workers_;  // deque: workers hold atomics, never move
};

}  // namespace

FleetResult run_thread_fleet(const Program& program,
                             const std::vector<Input>& seeds,
                             const FleetConfig& config) {
  return run_fleet(config, "run_thread_fleet", [&] {
    return std::make_unique<ThreadBackend>(program, seeds, config);
  });
}

}  // namespace bigmap
