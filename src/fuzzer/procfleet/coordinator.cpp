#include "fuzzer/procfleet/coordinator.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/failover.h"
#include "fuzzer/procfleet/shm.h"
#include "fuzzer/procfleet/shm_hub.h"
#include "fuzzer/procfleet/worker.h"
#include "persist/federation.h"
#include "util/syscall.h"
#include "util/timing.h"

namespace bigmap::procfleet {
namespace {

// Forked workers over one shm segment. All cross-process state lives in
// the workers' ShmWorkerBlocks; this is pid bookkeeping only.
class ProcessBackend final : public WorkerBackend {
 public:
  ProcessBackend(const Program& program, const std::vector<Input>& seeds,
                 const FleetConfig& config)
      : program_(program),
        seeds_(seeds),
        config_(config),
        // Federation: every remote peer appears behind one extra hub
        // instance (the gateway), so imports reach workers through their
        // ordinary fetch_new and exports are what the gateway fetches.
        geom_{config.num_workers + (config.failover.num_nodes >= 2 ? 1u : 0u),
              config.sync_max_records, config.sync_max_input_size},
        segment_(geom_),
        hub_opts_{config.sync_read_timeout_us},
        // Coordinator-side hub view: cursor rewinds, stats, and (when
        // federated) the gateway's publish/fetch traffic.
        hub_(&segment_, hub_opts_, nullptr),
        pids_(config.num_workers, -1),
        hard_stopped_(config.num_workers, false) {
    if (config.failover.num_nodes >= 2) start_federation();
  }

  ~ProcessBackend() override {
    // Only reached with workers still alive when the core unwinds: no
    // orphan may outlive the fleet.
    for (pid_t pid : pids_) {
      if (pid <= 0) continue;
      ::kill(pid, SIGKILL);
      int status = 0;
      (void)xwaitpid(pid, &status, 0);
    }
  }

  bool launch(const LaunchSpec& spec, std::string* error) override {
    ShmWorkerBlock* blk = segment_.worker(spec.id);
    blk->control.progress.store(0, std::memory_order_relaxed);
    blk->control.stop.store(false, std::memory_order_relaxed);
    // The launch parameters already carry the current budget; a stale
    // grow signal from the previous incarnation must not linger.
    blk->control.budget_override.store(0, std::memory_order_relaxed);
    blk->state.store(kWorkerIdle, std::memory_order_relaxed);
    blk->result_execs.store(0, std::memory_order_relaxed);
    blk->result_interesting.store(0, std::memory_order_relaxed);
    blk->result_crashes.store(0, std::memory_order_relaxed);
    blk->result_fault_aborted.store(0, std::memory_order_relaxed);

    WorkerParams p;
    p.id = spec.id;
    p.expect_workers = geom_.num_workers;  // includes the gateway instance
    p.segment = &segment_;
    p.program = &program_;
    p.seeds = &seeds_;
    p.base = config_.base;
    p.seed_stride = config_.instance_seed_stride;
    p.goal = spec.segment_execs;
    p.resume = spec.resume;
    p.instance_dir =
        config_.persist_dir + "/instance-" + std::to_string(spec.id);
    p.checkpoint_interval = config_.checkpoint_interval;
    p.keep_checkpoints = config_.keep_checkpoints;
    p.fault = config_.fault;
    p.chaos_check_interval = config_.chaos_check_interval;
    p.hub = hub_opts_;

    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = std::string("fork failed: ") + std::strerror(errno);
      return false;
    }
    if (pid == 0) {
      // Child: never return into the coordinator. _exit skips atexit and
      // destructors — everything this process owns dies with it.
      ::_exit(worker_main(p));
    }
    pids_[spec.id] = pid;
    hard_stopped_[spec.id] = false;
    return true;
  }

  std::optional<WorkerExit> poll_exit(u32 id) override {
    int status = 0;
    if (xwaitpid(pids_[id], &status, WNOHANG) != pids_[id]) {
      return std::nullopt;
    }
    pids_[id] = -1;
    WorkerExit ex;
    // A worker that reached kWorkerDone published authoritative lifetime
    // counters for its budget segment.
    const ShmWorkerBlock* blk = segment_.worker(id);
    if (blk->state.load(std::memory_order_acquire) == kWorkerDone) {
      ex.has_result = true;
      ex.result.execs = blk->result_execs.load(std::memory_order_relaxed);
      ex.result.interesting =
          blk->result_interesting.load(std::memory_order_relaxed);
      ex.result.crashes_total =
          blk->result_crashes.load(std::memory_order_relaxed);
    }
    if (WIFEXITED(status)) {
      const int code = WEXITSTATUS(status);
      switch (code) {
        case kExitOk: ex.cause = ExitCause::kClean; break;
        case kExitFaultKill: ex.cause = ExitCause::kInjectedKill; break;
        case kExitOom: ex.cause = ExitCause::kOom; break;
        case kExitShmFail: ex.cause = ExitCause::kShmFail; break;
        case kExitMidPublish: ex.cause = ExitCause::kMidPublish; break;
        default:
          ex.cause = ExitCause::kError;
          ex.error = "worker exit code " + std::to_string(code);
          break;
      }
    } else if (WIFSIGNALED(status)) {
      ex.signal = WTERMSIG(status);
      // Our own deadline kill coming back around, or a genuine crash.
      ex.cause = hard_stopped_[id] && ex.signal == SIGKILL
                     ? ExitCause::kHardStopped
                     : ExitCause::kSignal;
    } else {
      // Stopped/continued never reach here (no WUNTRACED).
      ex.cause = ExitCause::kError;
      ex.error = "unrecognized wait status";
    }
    return ex;
  }

  u64 progress(u32 id) override {
    return segment_.worker(id)->control.progress.load(
        std::memory_order_relaxed);
  }
  void stop(u32 id) override {
    segment_.worker(id)->control.stop.store(true, std::memory_order_relaxed);
  }
  // SIGKILL works on SIGSTOP'd, swapped-out and livelocked workers alike.
  void hard_stop(u32 id) override {
    hard_stopped_[id] = true;
    ::kill(pids_[id], SIGKILL);
  }
  // Through the shared control block: the campaign picks the new budget up
  // at its next exec boundary — no exit, no restore, no ring re-import.
  void grow_budget(u32 id, u64 segment_execs) override {
    segment_.worker(id)->control.budget_override.store(
        segment_execs, std::memory_order_relaxed);
  }
  SyncEndpoint& hub() override { return hub_; }

  void pump(u64 now_ns) override {
    if (fomesh_) fomesh_->pump(now_ns);
  }
  void finish(FleetResult& out) override {
    if (!fomesh_) return;
    // Drain the links before the tally: ship the final sync interval's
    // finds, deliver the backlog, say goodbye.
    fomesh_->shutdown(monotonic_ns());
    out.failover = fomesh_->failover_stats();
    out.net = out.failover.net;
    out.oracle = out.failover.oracle;
  }
  const char* counter_prefix() const override { return "procfleet."; }

 private:
  void start_federation() {
    netfleet::FailoverNodeConfig fo = config_.failover;
    // Peer-config defaults: fingerprint from the fleet identity (nodes of
    // a correctly-configured federation derive the same value) and the
    // entry-size clamp.
    if (fo.link.session_fingerprint == 0) {
      const persist::FleetFingerprint fp = fleet_fingerprint(config_);
      u64 h = 0xb1674a95ull;
      for (u64 v : {static_cast<u64>(fp.num_instances), fp.base_seed,
                    fp.seed_stride, fp.max_execs, static_cast<u64>(fp.scheme),
                    static_cast<u64>(fp.metric), fp.map_size}) {
        h = (h ^ v) * 0x100000001b3ull;
      }
      fo.link.session_fingerprint = h;
    }
    if (fo.link.max_entry_size > config_.sync_max_input_size) {
      fo.link.max_entry_size = config_.sync_max_input_size;
    }
    if (fo.wal_path.empty()) {
      fo.wal_path = persist::federation_wal_path(config_.persist_dir);
    }
    // One remote model per link: the oracle re-executes each candidate and
    // ships it only when it flips virgin bits the peer has not covered.
    netfleet::FailoverMesh::OracleFactory factory;
    if (config_.net_virgin_oracle) {
      factory = [this]() -> std::unique_ptr<corpus::NoveltyOracle> {
        corpus::OracleConfig oc;
        oc.scheme = config_.base.scheme;
        oc.metric = config_.base.metric;
        oc.map = config_.base.map;
        oc.seed = config_.base.seed;
        oc.step_budget = config_.base.step_budget;
        oc.work_per_block = config_.base.work_per_block;
        return corpus::make_novelty_oracle(program_, oc);
      };
    }
    telemetry::FleetTelemetry* fleet = config_.telemetry;
    fomesh_ = std::make_unique<netfleet::FailoverMesh>(
        &hub_, config_.num_workers, std::move(fo), std::move(factory),
        config_.fault, fleet != nullptr ? &fleet->registry() : nullptr);
  }

  const Program& program_;
  const std::vector<Input>& seeds_;
  const FleetConfig& config_;
  const ShmGeometry geom_;
  ShmSegment segment_;
  const ShmHubOptions hub_opts_;
  ShmHub hub_;
  std::unique_ptr<netfleet::FailoverMesh> fomesh_;
  std::vector<pid_t> pids_;
  std::vector<bool> hard_stopped_;
};

}  // namespace

ProcFleetResult run_process_fleet(const Program& program,
                                  const std::vector<Input>& seeds,
                                  const ProcFleetConfig& config) {
  if (config.num_workers == 0) return {};
  // A federated peer resetting its socket must surface as EPIPE on the
  // gateway's send path (triaged, retried), never as a SIGPIPE that kills
  // the whole coordinator. Harmless for local-only fleets.
  ignore_sigpipe();
  if (config.persist_dir.empty()) {
    throw std::invalid_argument(
        "run_process_fleet: persist_dir is required (crash isolation "
        "without durable state would lose every unsynced find)");
  }
  const netfleet::FailoverNodeConfig& fo = config.failover;
  if (fo.num_nodes >= 2 &&
      (fo.rank >= fo.num_nodes || fo.initial_leader >= fo.num_nodes ||
       fo.initial_epoch == 0 || fo.listen_fds.size() != fo.num_nodes ||
       fo.dial_ports.size() != fo.num_nodes)) {
    throw std::invalid_argument(
        "run_process_fleet: malformed failover config (need "
        "rank/leader in range, epoch >= 1, and num_nodes-sized "
        "listen_fds/dial_ports)");
  }
  return run_fleet(config, "run_process_fleet", [&] {
    return std::make_unique<ProcessBackend>(program, seeds, config);
  });
}

}  // namespace bigmap::procfleet
