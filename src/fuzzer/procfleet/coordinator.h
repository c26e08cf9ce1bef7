// Multi-process fleets: crash-isolated campaign workers.
//
// run_process_fleet() runs the fleet policy core (fuzzer/fleet.h) over
// *forked worker processes* sharing a shared-memory segment
// (procfleet/shm.h), so a worker that SIGKILLs itself, wedges, or corrupts
// its own heap cannot take the fleet down — the blast radius of any
// failure is one process. What the process backend adds to the policy:
//
//  - hard stops are SIGKILL, so the heartbeat deadline catches SIGSTOP'd,
//    swapped-out and livelocked workers a cooperative flag never reaches;
//  - exit triage decodes waitpid statuses: the worker exit codes
//    (procfleet/worker.h: OOM / shm attach failure / error / injected kill
//    / died mid-publish), the coordinator's own hang kills, and genuine
//    crash signals, each counted as a procfleet.* registry counter;
//  - restarts are always warm, and every replacement process advances its
//    fresh fault injector to the chaos-site occurrence counts mirrored in
//    shared memory, so seeded fault schedules stay cumulative across
//    process generations;
//  - per-worker exec heartbeats feed the per-instance telemetry sinks, so
//    fuzzer_stats / plot_data emitters see process fleets exactly like
//    thread fleets;
//  - federation: with failover.num_nodes >= 2 the coordinator pumps a
//    FailoverMesh node behind one extra hub instance (fuzzer/netfleet).
//
// The names below are the fleet types under their process-fleet names.
#pragma once

#include <vector>

#include "fuzzer/fleet.h"
#include "target/program.h"

namespace bigmap::procfleet {

using ProcFleetConfig = FleetConfig;
using ProcFleetResult = FleetResult;
using bigmap::WorkerHealth;
using bigmap::WorkerState;

// Runs `config.num_workers` campaign workers of `config.base` over
// `program`/`seeds` in forked processes. Blocks until every worker
// completes, fails, or is quarantined. Throws std::invalid_argument on a
// malformed config (no persist_dir, malformed failover config, telemetry
// too small) and std::runtime_error when the fleet store refuses the
// directory.
ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config);

}  // namespace bigmap::procfleet
