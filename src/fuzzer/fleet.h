// Fault-tolerant campaign fleets: one supervision policy, two isolation
// backends.
//
// The paper's parallel results (Figures 9/10) assume every instance
// survives a 24 h run; real campaigns don't — instances stall on
// pathological inputs, die to resource exhaustion, and lose their corpus
// state. A fleet runs N run_campaign instances over a shared sync hub and
// keeps the campaign alive. The policy lives in one core (run_fleet):
//
//  - watchdog: each worker publishes an exec-count heartbeat through its
//    CampaignControl; a worker whose count has not moved within
//    stall_deadline_ms is hard-stopped and triaged as a hang;
//  - exit triage: every attempt's end is classified (clean, injected kill,
//    OOM, shm failure, died mid-publish, error, crash signal, hang) into
//    WorkerHealth counters and, for process fleets, procfleet.* registry
//    counters;
//  - restarts: exponential backoff (initial * multiplier^k, capped) under a
//    per-worker retry budget. With persist_dir set every restart is warm
//    (the replacement resumes the worker's last checkpoint and continues
//    the same budget segment); without it a restart is cold and opens a new
//    segment charged with everything the dead attempt consumed, so the
//    fleet total stays exactly num_workers * max_execs either way. A worker
//    that cannot even be launched counts as an abnormal attempt too;
//  - quarantine: a worker that dies abnormally quarantine_deaths times
//    within quarantine_window_ms is parked; its undone budget is granted to
//    the workers still able to absorb it (a completed worker is reopened),
//    so the fleet delivers the full budget, degraded but exact;
//  - persistence: every lifecycle transition is journaled to a FleetStore,
//    so a SIGKILL'd fleet relaunched with resume = true continues with
//    find-union semantics identical to an uninterrupted run;
//  - telemetry, the wall-clock safety stop, and the final find-union
//    tally over every attempt of every worker.
//
// What isolates a worker is a WorkerBackend:
//
//   run_thread_fleet    std::threads in this process over a SyncHub. A
//                       hard stop is the cooperative stop flag (a thread
//                       wedged inside one execution cannot be preempted;
//                       the step-budget hang detector bounds that window).
//                       Kept for TSan coverage and cheap in-process drills.
//   run_process_fleet   forked workers over a shared-memory segment
//                       (fuzzer/procfleet/coordinator.h): a hard stop is
//                       SIGKILL, and one worker's crash cannot take the
//                       fleet down. Requires persist_dir.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/campaign.h"
#include "fuzzer/netfleet/failover.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/sync.h"
#include "persist/checkpoint.h"
#include "persist/fleet.h"
#include "target/program.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap {

struct FleetConfig {
  u32 num_workers = 4;

  // Template for every worker; per-worker fields (seed, sync, control,
  // persistence, fault wiring) are filled in per attempt. Worker i runs
  // with seed = base.seed + i * instance_seed_stride.
  CampaignConfig base;
  u64 instance_seed_stride = 1;

  // Watchdog: poll every poll_ms; hard-stop a worker whose heartbeat has
  // not moved within stall_deadline_ms.
  u32 poll_ms = 5;
  u32 stall_deadline_ms = 1000;

  // Restart policy (per worker, exponential backoff).
  u32 max_restarts_per_worker = 8;
  u32 backoff_initial_ms = 5;
  double backoff_multiplier = 2.0;
  u32 backoff_cap_ms = 500;

  // Quarantine: park a worker that dies abnormally `quarantine_deaths`
  // times within `quarantine_window_ms` (0 deaths disables quarantine).
  u32 quarantine_deaths = 0;
  u32 quarantine_window_ms = 10000;

  // Shared hub sizing; the read timeout bounds a process-fleet reader's
  // wait on a torn publish (see procfleet/shm_hub.h).
  u32 sync_max_records = 1u << 10;
  u32 sync_max_input_size = 1u << 12;
  u32 sync_read_timeout_us = 2000;

  // Optional deterministic fault schedule, keyed by worker id. Thread
  // fleets share this injector with every attempt (and bind it around each
  // one so PageBuffer allocation failures surface as std::bad_alloc); the
  // fleet's own journal I/O and the sync hub consult it too. A process
  // fleet's coordinator uses it for its own I/O and its federation node,
  // and every worker process rebuilds a private injector from its seed()
  // and plan(), continuing the occurrence counts mirrored in shared memory.
  FaultInjector* fault = nullptr;
  // Executions between process-level chaos-site checks in each worker.
  u64 chaos_check_interval = 64;

  // Fleet persistence (off when empty; required by process fleets).
  // Enables warm restarts, the lifecycle journal and whole-process resume;
  // resume against a directory written by a differently configured fleet
  // throws std::runtime_error.
  std::string persist_dir;
  u64 checkpoint_interval = 1024;
  u32 keep_checkpoints = 2;
  bool resume = false;

  // Optional fleet telemetry (>= num_workers sinks; validated). Thread
  // workers feed their sink directly; process workers' sinks are fed from
  // the shm heartbeat. Lifecycle counters flow into the registry, and a
  // fleet-level snapshot is stamped every fleet_stamp_ms plus once at the
  // end.
  telemetry::FleetTelemetry* telemetry = nullptr;
  u32 fleet_stamp_ms = 100;

  // Safety net: when > 0 and the fleet exceeds this, every worker gets a
  // cooperative stop (escalated to a hard stop after two stall deadlines)
  // and no replacement is launched.
  double max_wall_seconds = 0.0;

  // Process fleets only — federation (src/fuzzer/netfleet): with
  // failover.num_nodes >= 2 the coordinator reserves one extra hub
  // instance as the federation's gateway and pumps a FailoverMesh node from
  // its event loop; remote finds arrive through the workers' ordinary
  // fetch_new. Its wal_path defaults to <persist_dir>/federation.wal.
  netfleet::FailoverNodeConfig failover;
  // Upgrades every federation link's novelty gate from content-hash to
  // virgin-map semantics (a per-link corpus::NoveltyOracle). Opt-in so
  // oracle-free federation runs stay bit-identical.
  bool net_virgin_oracle = false;
};

enum class WorkerState : u8 {
  kCompleted,    // delivered its full exec budget
  kFailed,       // retry budget exhausted / wall-clock stop
  kQuarantined,  // parked after repeated abnormal deaths
};

struct WorkerHealth {
  u32 id = 0;
  WorkerState state = WorkerState::kCompleted;
  u32 attempts = 0;       // launches tried (>= 1), failed launches included
  u32 restarts = 0;
  u32 warm_restarts = 0;  // restarts that resumed from a checkpoint
  u32 hang_kills = 0;     // hard stops after a heartbeat stall
  u32 crash_signals = 0;  // abnormal signal deaths not initiated by us
  u32 oom_kills = 0;      // attempts lost to std::bad_alloc
  u32 shm_failures = 0;   // shm attach/validate refused
  u32 error_exits = 0;    // errors, mid-publish deaths, failed launches,
                          // clean exits without progress
  u32 kills = 0;          // injected kInstanceKill deaths
  int last_signal = 0;    // most recent crash signal number
  u64 execs = 0;          // lifetime execs across every budget segment
  u64 interesting = 0;
  u64 crashes_total = 0;
  u64 faulted_execs = 0;
  u64 injected_hangs = 0;
  u64 faults_injected = 0;  // faults the fleet's injector delivered to it
  u64 goal = 0;             // final exec budget (base + quarantine grants)
  std::string last_error;
};

struct FleetResult {
  std::vector<WorkerHealth> workers;

  // Union across every attempt of every worker and every worker's durable
  // state (the Figure 9/10 cross-instance crash metric).
  std::vector<u32> found_bug_ids;
  std::vector<u64> found_stack_hashes;

  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  u64 total_restarts = 0;
  u32 quarantined = 0;
  // Budget that could not be redistributed because no live worker was
  // left to absorb it (every survivor quarantined/failed).
  u64 unassigned_budget = 0;
  double wall_seconds = 0.0;
  double aggregate_throughput = 0.0;  // total_execs / wall_seconds

  // Faults the configured injector delivered overall, and the subset
  // delivered to workers that nevertheless completed. A process fleet's
  // workers fault through private injectors, so there this counts only the
  // coordinator's own.
  u64 faults_injected = 0;
  u64 faults_survived = 0;

  SyncHubStats sync;
  // Persistence accounting (all zero without persist_dir).
  persist::PersistStats persist;
  // True when this run resumed a previous process's fleet journal.
  bool resumed = false;

  // Process fleets only: federation link, novelty-oracle and election
  // accounting of the node (zeroed without federation; failover.net and
  // failover.oracle are copied into the two members before it).
  netfleet::LinkStats net;
  corpus::OracleStats oracle;
  netfleet::FailoverStats failover;

  // Final fleet-level telemetry snapshot (zeroed without telemetry).
  // fleet_total.execs equals the summed lifetime execs of every sink.
  telemetry::StatsSnapshot fleet_total;

  bool all_completed() const noexcept {
    for (const WorkerHealth& h : workers) {
      if (h.state != WorkerState::kCompleted) return false;
    }
    return !workers.empty();
  }
};

// Runs `config.num_workers` campaigns of `config.base` over
// `program`/`seeds` on threads of this process. Blocks until every worker
// completes, fails, or is quarantined.
FleetResult run_thread_fleet(const Program& program,
                             const std::vector<Input>& seeds,
                             const FleetConfig& config);

// --- the policy core and its backend seam ----------------------------------

// What the core asks a backend to start.
struct LaunchSpec {
  u32 id = 0;
  u64 segment_execs = 0;  // this attempt's exec budget (0 = unbounded)
  bool resume = false;    // restore the newest checkpoint first
  bool prime_sink = false;  // resumed in a new process: re-prime the sink
  // The worker's checkpoint store in this process (null without
  // persist_dir). Process workers open their own from the same directory.
  persist::CheckpointStore* store = nullptr;
};

enum class ExitCause : u8 {
  kClean,         // ran to a stop of its own or honoured a stop request
  kInjectedKill,  // kInstanceKill fault
  kOom,           // std::bad_alloc
  kShmFail,       // shm attach/validate refused
  kMidPublish,    // died inside a publish (chaos)
  kError,         // exception, unknown exit code or wait status, failed launch
  kSignal,        // killed by a signal the fleet did not send
  kHardStopped,   // the fleet's own hard stop after a heartbeat stall
  kNoProgress,    // (core only) clean but short, without one new exec
};

// Lifetime counters of a budget segment.
struct SegmentCounters {
  u64 execs = 0;
  u64 interesting = 0;
  u64 crashes_total = 0;
  u64 faulted_execs = 0;
  u64 injected_hangs = 0;
};

// How one attempt ended.
struct WorkerExit {
  ExitCause cause = ExitCause::kClean;
  int signal = 0;           // kSignal: the signal number
  std::string error;        // kError: what went wrong
  bool has_result = false;  // `result` is authoritative for the segment
  // A resumed attempt continues its checkpoint's counters.
  SegmentCounters result;
  bool time_bound = false;  // stopped by its own base.max_seconds
  // Finds of this attempt; backends that cannot hand them over leave these
  // empty and the core reads the worker's durable snapshot instead.
  std::vector<u32> bug_ids;
  std::vector<u64> stack_hashes;
};

class WorkerBackend {
 public:
  virtual ~WorkerBackend() = default;

  // Starts one attempt. Returns false with *error set when the worker
  // could not be started at all.
  virtual bool launch(const LaunchSpec& spec, std::string* error) = 0;
  // Non-blocking: how worker `id`'s running attempt ended, once it has.
  virtual std::optional<WorkerExit> poll_exit(u32 id) = 0;
  // The running attempt's heartbeat (executions so far).
  virtual u64 progress(u32 id) = 0;
  // Asks the running attempt to wind down at its next exec boundary.
  virtual void stop(u32 id) = 0;
  // Ends a running attempt that ignores its heartbeat deadline.
  virtual void hard_stop(u32 id) = 0;
  // Raises the running attempt's segment budget in place.
  virtual void grow_budget(u32 id, u64 segment_execs) = 0;
  // The hub every worker syncs through (cursor rewinds, final stats).
  virtual SyncEndpoint& hub() = 0;
  // Called once per poll tick.
  virtual void pump(u64 /*now_ns*/) {}
  // Called once after the last worker finished, before the tally.
  virtual void finish(FleetResult& /*out*/) {}

  // True when workers feed their telemetry sinks themselves; otherwise
  // the core feeds them from heartbeats and exit reports.
  virtual bool workers_feed_sinks() const { return false; }
  // Registry prefix of the per-cause lifecycle counters ("procfleet."),
  // or null to emit only the FleetTelemetry supervisor.* counters.
  virtual const char* counter_prefix() const { return nullptr; }
};

// The fleet identity a FleetStore journal is bound to.
persist::FleetFingerprint fleet_fingerprint(const FleetConfig& config);

// Backoff before the `restarts_done`-th restart:
// initial * multiplier^(restarts_done - 1), capped.
u64 fleet_backoff_ns(const FleetConfig& config, u32 restarts_done);

// Runs the policy core over the backend `make_backend` builds. The backend
// is built after the fleet store opened (a fresh store wipes persist_dir,
// where a backend may keep state of its own). `who` prefixes error
// messages. Throws std::invalid_argument when the telemetry has too few
// sinks and std::runtime_error when the fleet store refuses persist_dir.
using BackendFactory = std::function<std::unique_ptr<WorkerBackend>()>;
FleetResult run_fleet(const FleetConfig& config, const char* who,
                      const BackendFactory& make_backend);

}  // namespace bigmap
