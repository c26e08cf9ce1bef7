#include "fuzzer/procfleet/coordinator.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/failover.h"
#include "fuzzer/procfleet/shm.h"
#include "fuzzer/procfleet/shm_hub.h"
#include "fuzzer/procfleet/worker.h"
#include "persist/federation.h"
#include "persist/fleet.h"
#include "util/syscall.h"
#include "util/timing.h"

namespace bigmap::procfleet {
namespace {

// Per-worker supervision state, coordinator side. All cross-process state
// lives in the worker's ShmWorkerBlock; this is bookkeeping only.
struct Slot {
  enum class Phase { kPending, kRunning, kFinished };

  u32 id = 0;
  Phase phase = Phase::kPending;
  pid_t pid = -1;

  // Exec budget of the worker's (single, always-warm) budget segment;
  // grows when quarantine grants are absorbed.
  u64 goal = 0;
  bool resume_next = false;

  bool hang_kill_sent = false;  // we SIGKILLed it after a heartbeat stall
  bool stop_sent = false;       // cooperative stop requested (wall limit)
  bool wall_stopped = false;
  u64 stop_deadline_ns = 0;     // SIGKILL escalation for ignored stops
  u64 last_progress = 0;
  u64 last_progress_ns = 0;
  u64 next_start_ns = 0;
  // Durable execs when the current attempt launched; a clean-but-short
  // exit that did not move this is a stuck worker, not scheduled work.
  u64 execs_at_launch = 0;

  // Monotone high-water marks of what has been fed to this worker's
  // telemetry sink, so heartbeat samples and end-of-attempt results can
  // both feed it without double counting.
  u64 sink_execs = 0;
  u64 sink_interesting = 0;
  u64 sink_crashes = 0;

  // Timestamps (monotonic ns) of recent abnormal deaths, pruned to the
  // quarantine window.
  std::deque<u64> death_times;

  WorkerHealth health;
};

u64 backoff_ns(const ProcFleetConfig& cfg, u32 restarts_done) {
  double ms = static_cast<double>(cfg.backoff_initial_ms);
  for (u32 i = 1; i < restarts_done; ++i) ms *= cfg.backoff_multiplier;
  ms = std::min(ms, static_cast<double>(cfg.backoff_cap_ms));
  return static_cast<u64>(ms * 1e6);
}

}  // namespace

ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config) {
  ProcFleetResult out;
  if (config.num_workers == 0) return out;
  // A federated peer resetting its socket must surface as EPIPE on the
  // gateway's send path (triaged, retried), never as a SIGPIPE that kills
  // the whole coordinator. Harmless for local-only fleets.
  ignore_sigpipe();
  if (config.persist_dir.empty()) {
    throw std::invalid_argument(
        "run_process_fleet: persist_dir is required (crash isolation "
        "without durable state would lose every unsynced find)");
  }
  // Federation: every remote peer appears behind one extra hub instance
  // (the gateway) so imports flow to workers through ordinary fetch_new
  // and exports are exactly what the gateway's own fetch_new returns.
  const bool net_enabled = config.failover.num_nodes >= 2;
  if (net_enabled &&
      (config.failover.rank >= config.failover.num_nodes ||
       config.failover.initial_leader >= config.failover.num_nodes ||
       config.failover.initial_epoch == 0 ||
       config.failover.listen_fds.size() != config.failover.num_nodes ||
       config.failover.dial_ports.size() != config.failover.num_nodes)) {
    throw std::invalid_argument(
        "run_process_fleet: malformed failover config (need "
        "rank/leader in range, epoch >= 1, and num_nodes-sized "
        "listen_fds/dial_ports)");
  }
  telemetry::FleetTelemetry* fleet = config.telemetry;
  if (fleet != nullptr && fleet->num_instances() < config.num_workers) {
    throw std::invalid_argument(
        "run_process_fleet: FleetTelemetry has " +
        std::to_string(fleet->num_instances()) + " sinks for " +
        std::to_string(config.num_workers) + " workers");
  }

  // Coordinator-side injector: its journal/checkpoint I/O shares the
  // workers' fault schedule (separate occurrence counters — this is a
  // different process by construction). Workers rebuild their own.
  std::optional<FaultInjector> coord_fault_storage;
  FaultInjector* coord_fault = nullptr;
  if (config.fault_enabled) {
    coord_fault_storage.emplace(config.fault_seed, config.fault_plan);
    coord_fault = &*coord_fault_storage;
    if (fleet != nullptr) coord_fault->set_registry(&fleet->registry());
  }

  persist::FleetFingerprint fp;
  fp.num_instances = config.num_workers;
  fp.base_seed = config.base.seed;
  fp.seed_stride = config.instance_seed_stride;
  fp.max_execs = config.base.max_execs;
  fp.scheme = static_cast<u32>(config.base.scheme);
  fp.metric = static_cast<u32>(config.base.metric);
  fp.map_size = static_cast<u64>(config.base.map.map_size);
  persist::FleetStore store(config.persist_dir, fp,
                            persist::FaultCtx{coord_fault, 0}, config.resume);
  if (!store.ok()) {
    throw std::runtime_error("run_process_fleet: " + store.error());
  }
  out.resumed = store.resumed();
  // Materialize every instance store now: on a fresh open this wipes stale
  // snapshot directories in the coordinator, so workers (which always open
  // their store with fresh = false) can never resurrect a previous fleet's
  // state.
  for (u32 id = 0; id < config.num_workers; ++id) {
    (void)store.instance_store(id);
  }

  const u32 gateway_id = config.num_workers;

  ShmGeometry geom;
  geom.num_workers = config.num_workers + (net_enabled ? 1 : 0);
  geom.max_records = config.sync_max_records;
  geom.max_input_size = config.sync_max_input_size;
  ShmSegment segment(geom);
  ShmHubOptions hub_opts;
  hub_opts.read_timeout_us = config.sync_read_timeout_us;
  // Coordinator-side hub view: cursor rewinds, stats, and (when federated)
  // the gateway's publish/fetch traffic.
  ShmHub hub(&segment, hub_opts, nullptr);

  std::unique_ptr<netfleet::FailoverMesh> fomesh;
  if (net_enabled) {
    netfleet::FailoverNodeConfig fo = config.failover;
    // Peer-config defaults: fingerprint from the fleet identity (nodes of
    // a correctly-configured federation derive the same value) and the
    // entry-size clamp.
    if (fo.link.session_fingerprint == 0) {
      u64 h = 0xb1674a95ull;
      for (u64 v : {static_cast<u64>(fp.num_instances), fp.base_seed,
                    fp.seed_stride, fp.max_execs, static_cast<u64>(fp.scheme),
                    static_cast<u64>(fp.metric), fp.map_size}) {
        h = (h ^ v) * 0x100000001b3ull;
      }
      fo.link.session_fingerprint = h;
    }
    if (fo.link.max_entry_size > config.sync_max_input_size) {
      fo.link.max_entry_size = config.sync_max_input_size;
    }
    if (fo.wal_path.empty()) {
      fo.wal_path = persist::federation_wal_path(config.persist_dir);
    }
    // One remote model per link: the oracle re-executes each candidate and
    // ships it only when it flips virgin bits the peer has not covered.
    netfleet::FailoverMesh::OracleFactory factory;
    if (config.net_virgin_oracle) {
      factory = [&]() -> std::unique_ptr<corpus::NoveltyOracle> {
        corpus::OracleConfig oc;
        oc.scheme = config.base.scheme;
        oc.metric = config.base.metric;
        oc.map = config.base.map;
        oc.seed = config.base.seed;
        oc.step_budget = config.base.step_budget;
        oc.work_per_block = config.base.work_per_block;
        return corpus::make_novelty_oracle(program, oc);
      };
    }
    fomesh = std::make_unique<netfleet::FailoverMesh>(
        &hub, gateway_id, std::move(fo), std::move(factory), coord_fault,
        fleet != nullptr ? &fleet->registry() : nullptr);
  }

  const u64 start_ns = monotonic_ns();
  const u64 stall_ns = static_cast<u64>(config.stall_deadline_ms) * 1000000;
  const u64 window_ns =
      static_cast<u64>(config.quarantine_window_ms) * 1000000;

  std::vector<std::unique_ptr<Slot>> slots;
  slots.reserve(config.num_workers);
  for (u32 id = 0; id < config.num_workers; ++id) {
    auto s = std::make_unique<Slot>();
    s->id = id;
    s->health.id = id;
    s->goal = config.base.max_execs;
    slots.push_back(std::move(s));
  }

  std::unordered_set<u32> bug_union;
  std::unordered_set<u64> stack_union;
  // Exec budget freed by quarantined workers, not yet granted out.
  u64 budget_pool = 0;

  auto bump = [&](const char* name, u64 n = 1) {
    if (fleet != nullptr) {
      fleet->registry().counter(std::string("procfleet.") + name).add(n);
    }
  };

  // Feeds the monotone high-water counters into this worker's sink.
  auto feed_sink = [&](Slot& s, u64 execs, u64 interesting, u64 crashes) {
    if (fleet == nullptr) return;
    telemetry::TelemetrySink& sink = fleet->instance(s.id);
    if (execs > s.sink_execs) {
      sink.execs.add(execs - s.sink_execs);
      s.sink_execs = execs;
    }
    if (interesting > s.sink_interesting) {
      sink.interesting.add(interesting - s.sink_interesting);
      s.sink_interesting = interesting;
    }
    if (crashes > s.sink_crashes) {
      sink.crashes.add(crashes - s.sink_crashes);
      s.sink_crashes = crashes;
    }
  };

  auto journal_event = [&](const Slot& s, u32 final_state) {
    persist::InstanceEvent ev;
    ev.instance = s.id;
    ev.final_state = final_state;
    ev.attempts = s.health.attempts;
    ev.restarts = s.health.restarts;
    ev.stalls = s.health.hang_kills;
    ev.kills = s.health.kills;
    ev.alloc_failures = s.health.oom_kills;
    ev.warm_restarts = s.health.restarts;  // every procfleet restart is warm
    ev.execs = s.health.execs;
    ev.interesting = s.health.interesting;
    ev.crashes_total = s.health.crashes_total;
    // All budget lives in one always-warm segment: base_* stay zero and
    // segment_max_execs is the worker's (possibly granted-up) goal.
    ev.segment_max_execs = s.goal;
    ev.checkpoint_seq = store.instance_store(s.id).newest_seq_on_disk();
    std::string err;
    (void)store.append_event(ev, &err);
  };

  // Durable truth for a worker that did not hand over a clean result: its
  // newest checkpoint. Also unions the snapshot's triage identities.
  auto absorb_snapshot = [&](Slot& s) -> u64 {
    persist::CheckpointStore::LoadOutcome lo =
        store.instance_store(s.id).load_latest();
    if (!lo.snapshot.has_value()) return 0;
    for (u32 b : lo.snapshot->bug_ids) bug_union.insert(b);
    for (u64 h : lo.snapshot->stack_hashes) stack_union.insert(h);
    s.health.interesting = std::max(s.health.interesting,
                                    lo.snapshot->interesting);
    s.health.crashes_total = std::max(s.health.crashes_total,
                                      lo.snapshot->crashes_total);
    return lo.snapshot->execs;
  };

  // Spreads the freed budget pool over every worker that can still absorb
  // it (running, pending, or already completed — a completed worker is
  // reopened and resumes warm against its grown goal). Workers that are
  // failed or quarantined are not eligible.
  auto redistribute_pool = [&]() {
    if (budget_pool == 0) return;
    std::vector<Slot*> eligible;
    for (auto& sp : slots) {
      if (sp->phase != Slot::Phase::kFinished ||
          sp->health.state == WorkerState::kCompleted) {
        if (!sp->wall_stopped) eligible.push_back(sp.get());
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
        // Reopen: the worker already delivered its old goal; it resumes
        // from its final checkpoint and works off the grant.
        s->phase = Slot::Phase::kPending;
        s->resume_next = true;
        s->next_start_ns = monotonic_ns();
        s->hang_kill_sent = false;
      } else if (s->phase == Slot::Phase::kRunning) {
        // Grow the running worker's budget in place through the shared
        // control block: the campaign picks it up at its next execution
        // boundary and keeps going — no exit, no restore round-trip, no
        // ring re-import. If the worker exits before it sees the store,
        // the clean-but-short path relaunches it for free instead.
        segment.worker(s->id)->control.budget_override.store(
            s->goal, std::memory_order_relaxed);
      }
      journal_event(*s, persist::kEventRunning);
    }
  };

  // Whole-process resume: replay the journal into the slots, mirroring the
  // thread supervisor. Quarantined workers stay parked.
  if (store.resumed()) {
    for (auto& sp : slots) {
      Slot& s = *sp;
      const std::optional<persist::InstanceEvent> ev =
          store.last_event(s.id);
      if (!ev.has_value()) {
        // Died mid-first-attempt before any journal event; resume warm
        // from whatever checkpoints exist (cold start inside the worker if
        // none do).
        s.resume_next = true;
        continue;
      }
      s.health.attempts = ev->attempts;
      s.health.restarts = ev->restarts;
      s.health.hang_kills = ev->stalls;
      s.health.kills = ev->kills;
      s.health.oom_kills = ev->alloc_failures;
      s.health.execs = ev->execs;
      s.health.interesting = ev->interesting;
      s.health.crashes_total = ev->crashes_total;
      s.goal = ev->segment_max_execs != 0 ? ev->segment_max_execs
                                          : config.base.max_execs;

      if (ev->final_state == persist::kEventQuarantined) {
        s.health.state = WorkerState::kQuarantined;
        s.phase = Slot::Phase::kFinished;
        ++out.quarantined;
        absorb_snapshot(s);
        feed_sink(s, s.health.execs, s.health.interesting,
                  s.health.crashes_total);
        continue;
      }
      const bool owes_budget = s.goal == 0 || ev->execs < s.goal;
      if (ev->final_state != persist::kEventCompleted && owes_budget) {
        s.resume_next = true;
        continue;
      }
      s.health.state = ev->final_state == persist::kEventCompleted
                           ? WorkerState::kCompleted
                           : WorkerState::kFailed;
      s.phase = Slot::Phase::kFinished;
      s.health.execs = std::max(s.health.execs, absorb_snapshot(s));
      feed_sink(s, s.health.execs, s.health.interesting,
                s.health.crashes_total);
    }
    // Re-derive any pool a quarantine freed that the previous coordinator
    // never managed to grant out (it died between journaling the park and
    // journaling the grants).
    if (config.base.max_execs != 0) {
      const u64 total_budget =
          static_cast<u64>(config.num_workers) * config.base.max_execs;
      u64 assigned = 0;
      for (const auto& sp : slots) {
        // Quarantined workers contribute only their durable execs (that is
        // what freed the pool); failed workers keep their full goal — a
        // retry-exhausted worker's budget is lost, not redistributed, the
        // same as on the live path.
        assigned += sp->health.state == WorkerState::kQuarantined &&
                            sp->phase == Slot::Phase::kFinished
                        ? sp->health.execs
                        : sp->goal;
      }
      if (total_budget > assigned) {
        budget_pool = total_budget - assigned;
        redistribute_pool();
      }
    }
  }

  auto launch = [&](Slot& s) {
    ShmWorkerBlock* blk = segment.worker(s.id);
    blk->control.progress.store(0, std::memory_order_relaxed);
    blk->control.stop.store(false, std::memory_order_relaxed);
    // The launch parameters already carry the current goal; a stale grow
    // signal from the previous incarnation must not linger.
    blk->control.budget_override.store(0, std::memory_order_relaxed);
    blk->state.store(kWorkerIdle, std::memory_order_relaxed);
    blk->result_execs.store(0, std::memory_order_relaxed);
    blk->result_interesting.store(0, std::memory_order_relaxed);
    blk->result_crashes.store(0, std::memory_order_relaxed);
    blk->result_fault_aborted.store(0, std::memory_order_relaxed);

    WorkerParams p;
    p.id = s.id;
    p.expect_workers = geom.num_workers;  // includes the gateway instance
    p.segment = &segment;
    p.program = &program;
    p.seeds = &seeds;
    p.base = config.base;
    p.seed_stride = config.instance_seed_stride;
    p.goal = s.goal;
    p.resume = s.resume_next;
    p.instance_dir = config.persist_dir + "/instance-" +
                     std::to_string(s.id);
    p.checkpoint_interval = config.checkpoint_interval;
    p.keep_checkpoints = config.keep_checkpoints;
    p.fault_enabled = config.fault_enabled;
    p.fault_seed = config.fault_seed;
    p.fault_plan = config.fault_plan;
    p.chaos_check_interval = config.chaos_check_interval;
    p.hub = hub_opts;
    s.resume_next = false;

    const pid_t pid = ::fork();
    if (pid < 0) {
      // Treat a failed fork like any other abnormal attempt: back off and
      // retry through the normal restart machinery.
      s.health.last_error = "fork failed";
      s.next_start_ns = monotonic_ns() + backoff_ns(config, 1);
      return;
    }
    if (pid == 0) {
      // Child: never return into the coordinator. _exit skips atexit and
      // destructors — everything this process owns dies with it.
      ::_exit(worker_main(p));
    }
    s.pid = pid;
    s.phase = Slot::Phase::kRunning;
    s.hang_kill_sent = false;
    s.stop_sent = false;
    s.last_progress = 0;
    s.last_progress_ns = monotonic_ns();
    s.execs_at_launch = s.health.execs;
    ++s.health.attempts;
  };

  auto finish = [&](Slot& s, WorkerState state) {
    s.phase = Slot::Phase::kFinished;
    s.health.state = state;
    u32 final_state = persist::kEventFailed;
    if (state == WorkerState::kCompleted) {
      final_state = persist::kEventCompleted;
    } else if (state == WorkerState::kQuarantined) {
      final_state = persist::kEventQuarantined;
    }
    journal_event(s, final_state);
  };

  // Reaps one dead worker and decides: completed, restart, quarantine, or
  // give up.
  auto handle_exit = [&](Slot& s, int status) {
    const u64 now = monotonic_ns();
    ShmWorkerBlock* blk = segment.worker(s.id);
    const bool done =
        blk->state.load(std::memory_order_acquire) == kWorkerDone;
    if (::getenv("BIGMAP_FLEET_DEBUG") != nullptr) {
      std::fprintf(
          stderr,
          "[coord] w%u exited=%d code=%d signaled=%d sig=%d done=%d "
          "res_execs=%llu health_execs=%llu goal=%llu attempts=%u\n",
          s.id, WIFEXITED(status) ? 1 : 0,
          WIFEXITED(status) ? WEXITSTATUS(status) : -1,
          WIFSIGNALED(status) ? 1 : 0,
          WIFSIGNALED(status) ? WTERMSIG(status) : 0, done ? 1 : 0,
          static_cast<unsigned long long>(
              blk->result_execs.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(s.health.execs),
          static_cast<unsigned long long>(s.goal), s.health.attempts);
    }

    // A worker that reached kWorkerDone published authoritative lifetime
    // counters for its budget segment; absorb them.
    if (done) {
      s.health.execs =
          std::max(s.health.execs,
                   blk->result_execs.load(std::memory_order_relaxed));
      s.health.interesting = std::max(
          s.health.interesting,
          blk->result_interesting.load(std::memory_order_relaxed));
      s.health.crashes_total = std::max(
          s.health.crashes_total,
          blk->result_crashes.load(std::memory_order_relaxed));
      feed_sink(s, s.health.execs, s.health.interesting,
                s.health.crashes_total);
    }

    // Exit-status triage.
    bool clean = false;     // ran to a stop condition of its own
    bool abnormal = false;  // counts toward the quarantine window
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      switch (code) {
        case kExitOk:
          clean = true;
          break;
        case kExitFaultKill:
          ++s.health.kills;
          abnormal = true;
          bump("injected_kills");
          if (fleet != nullptr) fleet->kills().add();
          break;
        case kExitOom:
          ++s.health.oom_kills;
          abnormal = true;
          s.health.last_error = "std::bad_alloc";
          bump("oom_kills");
          if (fleet != nullptr) fleet->alloc_failures().add();
          break;
        case kExitShmFail:
          ++s.health.shm_failures;
          abnormal = true;
          s.health.last_error = "shm attach/validate failed";
          bump("shm_failures");
          break;
        case kExitMidPublish:
          ++s.health.error_exits;
          abnormal = true;
          s.health.last_error = "died mid-publish";
          bump("mid_publish_exits");
          break;
        default:
          ++s.health.error_exits;
          abnormal = true;
          s.health.last_error =
              "worker exit code " + std::to_string(code);
          bump("error_exits");
          break;
      }
    } else if (WIFSIGNALED(status)) {
      const int sig = WTERMSIG(status);
      if (s.hang_kill_sent && sig == SIGKILL) {
        // Our own deadline kill coming back around.
        ++s.health.hang_kills;
        abnormal = true;
        s.health.last_error = "hang-killed after heartbeat stall";
        bump("hang_kills");
        if (fleet != nullptr) fleet->stalls().add();
      } else {
        ++s.health.crash_signals;
        abnormal = true;
        s.health.last_signal = sig;
        s.health.last_error = "killed by signal " + std::to_string(sig);
        bump("crash_signals");
        bump(("signal_" + std::to_string(sig)).c_str());
      }
    } else {
      // Stopped/continued are filtered out before we get here; anything
      // else is an error exit.
      ++s.health.error_exits;
      abnormal = true;
      s.health.last_error = "unrecognized wait status";
      bump("error_exits");
    }

    const bool reached_goal =
        s.goal != 0 ? s.health.execs >= s.goal : clean;

    if (s.wall_stopped) {
      finish(s, clean && done && reached_goal ? WorkerState::kCompleted
                                              : WorkerState::kFailed);
      if (s.health.state == WorkerState::kFailed &&
          s.health.last_error.empty()) {
        s.health.last_error = "fleet wall-clock limit";
      }
      return;
    }

    if (clean && done && reached_goal) {
      finish(s, WorkerState::kCompleted);
      return;
    }

    if (clean && done && !reached_goal) {
      if (s.health.execs > s.execs_at_launch) {
        // Finished its old goal while a quarantine grant grew it (or was
        // stopped cooperatively without a wall stop). Continue warm
        // against the current goal; this is scheduled work, not a
        // failure, so it does not charge the retry budget or back off.
        s.resume_next = true;
        journal_event(s, persist::kEventRunning);
        s.next_start_ns = now;
        s.phase = Slot::Phase::kPending;
        hub.reset_cursor(s.id);
        return;
      }
      // Exited cleanly short of its goal without a single new execution:
      // the worker is stuck (e.g. restoring broken durable state in a
      // loop). Fall through to the abnormal path so it burns retry
      // budget, backs off, and eventually fails/quarantines instead of
      // relaunching for free forever.
      abnormal = true;
      s.health.last_error = "clean exit with no progress";
      ++s.health.error_exits;
      bump("no_progress_exits");
    }

    // Abnormal death. Slide the quarantine window.
    if (abnormal && config.quarantine_deaths > 0) {
      s.death_times.push_back(now);
      while (!s.death_times.empty() &&
             now - s.death_times.front() > window_ns) {
        s.death_times.pop_front();
      }
      if (s.death_times.size() >= config.quarantine_deaths) {
        // Park it. Durable progress is whatever its last checkpoint
        // holds; the undone budget goes back to the pool.
        const u64 durable = absorb_snapshot(s);
        s.health.execs = std::max(s.health.execs, durable);
        feed_sink(s, s.health.execs, s.health.interesting,
                  s.health.crashes_total);
        if (s.goal > s.health.execs) {
          budget_pool += s.goal - s.health.execs;
        }
        if (s.health.last_error.empty()) {
          s.health.last_error = "quarantined";
        }
        ++out.quarantined;
        bump("quarantined");
        finish(s, WorkerState::kQuarantined);
        redistribute_pool();
        return;
      }
    }

    if (s.health.restarts >= config.max_restarts_per_worker) {
      if (s.health.last_error.empty()) {
        s.health.last_error = "retry budget exhausted";
      }
      finish(s, WorkerState::kFailed);
      return;
    }

    ++s.health.restarts;
    ++out.total_restarts;
    s.resume_next = true;  // always warm: resume from the last checkpoint
    journal_event(s, persist::kEventRunning);
    const u64 backoff = backoff_ns(config, s.health.restarts);
    bump("restarts");
    if (fleet != nullptr) {
      fleet->restarts().add();
      fleet->instance(s.id).restarts.add();
      fleet->backoff_ms_total().add(backoff / 1000000);
    }
    s.next_start_ns = now + backoff;
    // Rewind the import cursor: the resumed queue may predate records the
    // dead attempt had already fetched, and re-importing is harmless.
    hub.reset_cursor(s.id);
    s.phase = Slot::Phase::kPending;
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
      for (auto& sp : slots) {
        sp->wall_stopped = true;
        if (sp->phase == Slot::Phase::kRunning) {
          sp->stop_sent = true;
          sp->stop_deadline_ns = now + 2 * stall_ns;
          segment.worker(sp->id)->control.stop.store(
              true, std::memory_order_relaxed);
        } else if (sp->phase == Slot::Phase::kPending) {
          if (sp->health.last_error.empty()) {
            sp->health.last_error = "fleet wall-clock limit";
          }
          finish(*sp, WorkerState::kFailed);
        }
      }
    }

    for (auto& sp : slots) {
      Slot& s = *sp;
      switch (s.phase) {
        case Slot::Phase::kPending:
          if (now >= s.next_start_ns) launch(s);
          ++unfinished;
          break;
        case Slot::Phase::kRunning: {
          int status = 0;
          const pid_t r = xwaitpid(s.pid, &status, WNOHANG);
          if (r == s.pid) {
            handle_exit(s, status);
            if (s.phase != Slot::Phase::kFinished) ++unfinished;
            break;
          }
          ++unfinished;
          ShmWorkerBlock* blk = segment.worker(s.id);
          const u64 p = blk->control.progress.load(std::memory_order_relaxed);
          if (p != s.last_progress) {
            s.last_progress = p;
            s.last_progress_ns = now;
            // The heartbeat is the segment-lifetime exec count; feed the
            // sink its monotone delta so process fleets chart like thread
            // fleets. Clamped to the goal: the campaign also ticks the
            // progress word once per checkpoint (so a slow save is not
            // mistaken for a stall), and those ticks must not inflate the
            // exec totals — the end-of-attempt result counters are the
            // authoritative value.
            feed_sink(s, s.goal != 0 ? std::min(p, s.goal) : p,
                      s.sink_interesting, s.sink_crashes);
          } else if (!s.hang_kill_sent && now - s.last_progress_ns > stall_ns) {
            // Heartbeat deadline: SIGKILL works on SIGSTOP'd, swapped-out
            // and livelocked workers alike. Triage happens at the reap.
            s.hang_kill_sent = true;
            ::kill(s.pid, SIGKILL);
          } else if (s.stop_sent && !s.hang_kill_sent &&
                     now >= s.stop_deadline_ns) {
            // Ignored the cooperative wall stop; escalate.
            s.hang_kill_sent = true;
            ::kill(s.pid, SIGKILL);
          }
          break;
        }
        case Slot::Phase::kFinished:
          break;
      }
    }

    if (fomesh) fomesh->pump(now);

    if (unfinished == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(config.poll_ms));
  }

  if (fomesh) {
    // Drain the links before tallying: ship the final sync interval's
    // finds, deliver the backlog, say goodbye.
    fomesh->shutdown(monotonic_ns());
    out.failover = fomesh->failover_stats();
    out.net = out.failover.net;
    out.oracle = out.failover.oracle;
  }

  out.wall_seconds = static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
  out.workers.reserve(slots.size());
  for (auto& sp : slots) {
    Slot& s = *sp;
    // Durable truth for everyone: the final snapshot carries the triage
    // identities (and, for workers that never handed over a clean result,
    // the exec count that will actually resume).
    const u64 durable = absorb_snapshot(s);
    if (s.health.state != WorkerState::kCompleted) {
      s.health.execs = std::max(s.health.execs, durable);
    }
    s.health.goal = s.goal;
    out.total_execs += s.health.execs;
    out.total_interesting += s.health.interesting;
    out.total_crashes += s.health.crashes_total;
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
  out.sync = hub.stats();
  out.persist = store.stats();
  if (fleet != nullptr) {
    out.fleet_total = fleet->stamp_fleet();
  }
  return out;
}

}  // namespace bigmap::procfleet
