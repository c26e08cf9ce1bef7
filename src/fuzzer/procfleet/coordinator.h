// Multi-process fleet coordinator: crash-isolated campaign workers.
//
// run_process_fleet() is the process-level sibling of the thread
// supervisor (fuzzer/supervisor.h): N campaign instances run in *forked
// worker processes* over a shared-memory segment (procfleet/shm.h), so a
// worker that SIGKILLs itself, wedges, or corrupts its own heap cannot
// take the fleet down — the blast radius of any failure is one process.
//
// The coordinator is a single-threaded event loop:
//
//  - heartbeat monitor: each worker's campaign bumps the CampaignControl
//    progress word in its ShmWorkerBlock; a worker whose word has not
//    moved within stall_deadline_ms is hang-killed (SIGKILL) — this is
//    what catches SIGSTOP'd, swapped-out, or livelocked workers that a
//    cooperative stop flag can never reach;
//  - exit-status triage: waitpid distinguishes clean completion, the
//    worker exit codes (OOM / shm attach failure / error / injected
//    kill / died-mid-publish), coordinator-initiated hang kills, and
//    genuine crash signals — each triaged into its own counter;
//  - restarts: exponential backoff under a per-worker retry budget.
//    Restarts are *warm*: the replacement process resumes from the
//    worker's last checkpoint (PR5), continues the same budget segment,
//    and advances its fresh fault injector to the chaos-site occurrence
//    counts mirrored in shared memory, so seeded fault schedules stay
//    cumulative across process generations;
//  - quarantine: a worker that dies abnormally quarantine_deaths times
//    within quarantine_window_ms is parked instead of restarted. Its
//    durable progress (last checkpoint) is kept, and the undone part of
//    its exec budget is redistributed over the remaining live workers so
//    the fleet still delivers the full configured budget, degraded but
//    exact;
//  - persistence: every lifecycle transition is journaled to the
//    FleetStore (kEventRunning / kEventCompleted / kEventFailed /
//    kEventQuarantined), so killing the *coordinator* and relaunching
//    with resume = true continues the fleet with find-union semantics
//    identical to an uninterrupted run;
//  - telemetry: restart/hang-kill/crash-signal/quarantine counters flow
//    into the FleetTelemetry registry as procfleet.* counters, and
//    per-worker exec heartbeats feed the per-instance sinks, so
//    fuzzer_stats / plot_data emitters see process fleets exactly like
//    thread fleets.
#pragma once

#include <string>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/campaign.h"
#include "fuzzer/netfleet/failover.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/sync.h"
#include "persist/checkpoint.h"
#include "target/program.h"
#include "telemetry/sink.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap::procfleet {

struct ProcFleetConfig {
  u32 num_workers = 4;

  // Template for every worker; per-worker fields (seed, sync, control,
  // persistence, fault wiring) are filled in by the worker itself.
  CampaignConfig base;
  u64 instance_seed_stride = 1;

  // Heartbeat monitor: poll every poll_ms; SIGKILL a worker whose
  // progress word has not moved within stall_deadline_ms.
  u32 poll_ms = 5;
  u32 stall_deadline_ms = 1000;

  // Restart policy (per worker, exponential backoff).
  u32 max_restarts_per_worker = 8;
  u32 backoff_initial_ms = 5;
  double backoff_multiplier = 2.0;
  u32 backoff_cap_ms = 500;

  // Quarantine: park a worker that dies abnormally `quarantine_deaths`
  // times within `quarantine_window_ms` (0 deaths disables quarantine).
  // Parked workers keep their durable progress; their remaining exec
  // budget is redistributed over the surviving workers.
  u32 quarantine_deaths = 0;
  u32 quarantine_window_ms = 10000;

  // Shared publish ring sizing and reader bounded-wait (see shm_hub.h).
  u32 sync_max_records = 1u << 10;
  u32 sync_max_input_size = 1u << 12;
  u32 sync_read_timeout_us = 2000;

  // Deterministic chaos schedule. Unlike the thread supervisor's injected
  // FaultInjector*, the plan is passed by value: every worker process
  // rebuilds its own injector from (fault_seed, fault_plan) and continues
  // the chaos-site occurrence sequence from the shm mirror. The
  // coordinator builds one too, for its own journal I/O faults.
  bool fault_enabled = false;
  u64 fault_seed = 0;
  FaultPlan fault_plan;
  // Executions between chaos-site checks inside each worker.
  u64 chaos_check_interval = 64;

  // Fleet persistence — REQUIRED (run_process_fleet throws on empty):
  // process isolation without durable state would lose every find a dead
  // worker had not synced, and warm restarts are the whole point.
  std::string persist_dir;
  u64 checkpoint_interval = 1024;
  u32 keep_checkpoints = 2;
  bool resume = false;

  // Optional fleet telemetry (>= num_workers sinks; validated). Sinks
  // live in the coordinator: per-worker execs are fed from the shm
  // heartbeat (monotone deltas), fleet counters from the triage loop.
  telemetry::FleetTelemetry* telemetry = nullptr;
  u32 fleet_stamp_ms = 100;

  // Safety net: when > 0 and the fleet exceeds this, every worker gets a
  // cooperative stop, then a SIGKILL grace period.
  double max_wall_seconds = 0.0;

  // Federation (src/fuzzer/netfleet): with failover.num_nodes >= 2 the
  // coordinator reserves one extra hub instance as the federation's
  // gateway identity and pumps a FailoverMesh node from its event loop —
  // workers never know the difference; remote finds arrive through their
  // ordinary fetch_new. The node is a pair member, a star hub or spoke,
  // and switches roles at runtime when a leader dies. Its wal_path
  // defaults to <persist_dir>/federation.wal.
  netfleet::FailoverNodeConfig failover;

  // Upgrades every federation link's novelty gate from content-hash to
  // virgin-map semantics: a per-link corpus::NoveltyOracle (built by
  // make_novelty_oracle) models that peer's coverage, and an entry is
  // shipped only when it would flip virgin bits there. Opt-in so
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
  u32 attempts = 0;       // processes forked (>= 1)
  u32 restarts = 0;
  u32 hang_kills = 0;     // coordinator SIGKILLs after heartbeat deadline
  u32 crash_signals = 0;  // abnormal signal deaths not initiated by us
  u32 oom_kills = 0;      // kExitOom exits
  u32 shm_failures = 0;   // kExitShmFail exits (attach/validate refused)
  u32 error_exits = 0;    // kExitError + kExitMidPublish exits
  u32 kills = 0;          // injected kInstanceKill (kExitFaultKill exits)
  int last_signal = 0;    // most recent crash signal number
  u64 execs = 0;          // durable lifetime execs (budget segment total)
  u64 interesting = 0;
  u64 crashes_total = 0;
  u64 goal = 0;           // final exec budget (base + quarantine grants)
  std::string last_error;
};

struct ProcFleetResult {
  std::vector<WorkerHealth> workers;

  // Union across every worker's durable state (final snapshots) — the
  // cross-instance crash metric the chaos drill compares.
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
  double aggregate_throughput = 0.0;

  SyncHubStats sync;
  persist::PersistStats persist;
  bool resumed = false;

  // Federation link accounting, summed over every link the node ever
  // held (zeroed without federation).
  netfleet::LinkStats net;

  // Gateway novelty-oracle accounting, aggregated over every model (zeroed
  // unless net_virgin_oracle was set).
  corpus::OracleStats oracle;

  // Election/epoch accounting of the federation node (zeroed without
  // federation; its net/oracle fields are also copied into the two
  // members above).
  netfleet::FailoverStats failover;

  // Final fleet-level telemetry snapshot (zeroed without telemetry).
  telemetry::StatsSnapshot fleet_total;

  bool all_completed() const noexcept {
    for (const WorkerHealth& h : workers) {
      if (h.state != WorkerState::kCompleted) return false;
    }
    return !workers.empty();
  }
};

// Runs `config.num_workers` campaign workers of `config.base` over
// `program`/`seeds` in forked processes. Blocks until every worker
// completes, fails, or is quarantined. Throws std::invalid_argument on a
// malformed config (no persist_dir, zero workers with resume, telemetry
// too small) and std::runtime_error when the fleet store refuses the
// directory.
ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config);

}  // namespace bigmap::procfleet
