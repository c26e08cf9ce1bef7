// Worker entry for the multi-process fleet: what runs in a forked child.
//
// A worker is one campaign instance in its own address space. It validates
// the inherited shm segment (layout fingerprint), rebuilds its fault
// injector with chaos-site occurrence continuity from its ShmWorkerBlock
// mirror, opens its per-instance CheckpointStore (never fresh — the
// coordinator owns directory lifecycle), and runs run_campaign() over the
// ShmHub with the shared CampaignControl as its heartbeat/stop channel.
// The result counters are published into the worker block, the lifecycle
// state is set to kWorkerDone, and the process _exits with a triage code
// the coordinator decodes:
//
//   code                      meaning                      coordinator class
//   0   kExitOk               ran to its stop condition    clean exit
//   42  kExitOom              std::bad_alloc escaped       OOM
//   43  kExitShmFail          shm attach/validate failed   shm failure
//   44  kExitMidPublish       chaos: died inside a publish error exit
//   45  kExitError            unexpected exception         error exit
//   46  kExitFaultKill        injected kInstanceKill       instance kill
//   (killed by signal)        crash / hang-kill            signal triage
//
// The chaos pump implements the process-level fault sites as an ExecHook:
// every chaos_check_interval executions it consults the seeded injector at
// kProcKill (raise SIGKILL: the wild-write / OOM-killer model), kProcStall
// (raise SIGSTOP: the machine-wedge model — the coordinator's heartbeat
// deadline detects the stall and hang-kills), and kProcExitMidPublish
// (reserve a hub slot, never commit it, _exit: the torn-publish model the
// readers' bounded wait exists for). Each check bumps the shm occurrence
// mirror BEFORE firing, so an occurrence that kills the process is still
// consumed — "the nth occurrence faults" fires exactly once across any
// number of process restarts.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/campaign.h"
#include "fuzzer/procfleet/shm.h"
#include "fuzzer/procfleet/shm_hub.h"
#include "target/program.h"
#include "util/fault.h"
#include "util/types.h"

namespace bigmap::procfleet {

inline constexpr int kExitOk = 0;
inline constexpr int kExitOom = 42;
inline constexpr int kExitShmFail = 43;
inline constexpr int kExitMidPublish = 44;
inline constexpr int kExitError = 45;
inline constexpr int kExitFaultKill = 46;

struct WorkerParams {
  u32 id = 0;
  // Fleet size the worker expects the segment to be laid out for; part of
  // the attach-time validation.
  u32 expect_workers = 0;
  ShmSegment* segment = nullptr;
  const Program* program = nullptr;
  const std::vector<Input>* seeds = nullptr;

  // Campaign template; the worker fills seed/sync/control/persist fields.
  CampaignConfig base;
  u64 seed_stride = 1;

  // This worker's segment exec budget (possibly grown by quarantine
  // grants) and whether to resume from the latest checkpoint.
  u64 goal = 0;
  bool resume = false;

  std::string instance_dir;
  u64 checkpoint_interval = 0;
  u32 keep_checkpoints = 2;

  // Deterministic fault schedule (null = none): the coordinator's
  // injector, whose seed and plan the worker rebuilds its own from.
  const FaultInjector* fault = nullptr;
  // Executions between chaos-site checks.
  u64 chaos_check_interval = 64;

  ShmHubOptions hub;
};

// Runs one worker attempt to completion. Returns the exit code the child
// should _exit with; never returns control to coordinator logic.
int worker_main(const WorkerParams& params);

}  // namespace bigmap::procfleet
