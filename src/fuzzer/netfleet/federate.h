// Federation harness: runs N process-fleet coordinators in forked child
// processes, each a FailoverMesh node (failover.h) over loopback TCP, and
// merges their results.
//
// This is how the federation drill builds a "many hosts" topology on one
// machine: each node is a full run_process_fleet (its own shm segment,
// workers, persistence, chaos schedule); the only shared state is the
// sockets. The parent pre-binds the full listener matrix L[h][s] (the
// socket rank s dials when rank h leads) before forking, so every port is
// known with no handshake file and any rank can be promoted without
// coordination. Each child reports its result over a pipe as plain
// key-value text, and the parent computes the federation union — found
// bugs, stack hashes, exec totals — which the drill compares against a
// single-fleet baseline.
//
// A pair is the 2-node case, a star any larger one; rank 0 leads epoch 1.
// The caller's failover config picks the rest (election_timeout_ms = 0
// for a federation that never elects, net_virgin_oracle for the oracle).
#pragma once

#include <string>
#include <vector>

#include "fuzzer/procfleet/coordinator.h"
#include "target/program.h"

namespace bigmap::netfleet {

// One node's reported outcome (parsed from its pipe). `net` is the sum
// over every link the node held and `oracle` the aggregate novelty-oracle
// accounting (zeroed when the oracle was off).
struct HalfReport {
  bool ok = false;
  std::string error;
  std::vector<u32> bug_ids;
  std::vector<u64> stack_hashes;
  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  bool all_completed = false;
  LinkStats net;
  corpus::OracleStats oracle;
  // Election/epoch accounting; its nested net/oracle fields stay zeroed
  // here — the two members above carry them.
  FailoverStats failover;
};

// Chaos control: what happens to a rank that dies by SIGKILL mid-run (a
// kProcKill trigger on its gateway instance makes a leader kill its own
// process group; see failover.h).
struct FederationOpts {
  enum class Resurrect {
    kNone,    // stays dead; survivors elect and finish without it
    kRejoin,  // restarts (resume + probe) and rejoins the new epoch
    kStale,   // restarts with stale_fatal: must observe the newer epoch
              // and latch fenced (the split-brain rejection proof)
  };
  Resurrect resurrect = Resurrect::kNone;
  u32 resurrect_after_ms = 0;  // measured from reaping the dead rank
};

struct FederationResult {
  bool ok = false;  // every (surviving or resurrected) node reported
  std::string error;
  std::vector<HalfReport> nodes;  // by rank; a killed rank that was never
                                  // resurrected reports ok=false, "killed"

  // Federation union / totals across every reporting node (the drill's
  // comparison keys).
  std::vector<u32> found_bug_ids;
  std::vector<u64> found_stack_hashes;
  u64 total_execs = 0;
  u64 total_interesting = 0;
  u64 total_crashes = 0;
  bool all_completed = false;
};

// Runs nodes[r] as rank r of one federation, each forked into its own
// process group so a SIGKILL of the group takes the coordinator AND its
// workers, exactly how a host dies. rank / num_nodes / initial_leader /
// listen_fds / dial_ports / node_id and a shared session fingerprint are
// filled in here; everything else is the caller's. Blocks until every
// live node exits. Requires at least two nodes.
FederationResult run_federation(const Program& program,
                                const std::vector<Input>& seeds,
                                std::vector<procfleet::ProcFleetConfig> nodes,
                                const FederationOpts& opts = {});

// The numeric keys of the child-pipe report, in one table: calls
// fn(key, field) for each. `R` is procfleet::ProcFleetResult (encode) or
// HalfReport (decode); both name these members alike.
template <class R, class Fn>
void for_each_report_field(R& r, Fn&& fn) {
  fn("total_execs", r.total_execs);
  fn("total_interesting", r.total_interesting);
  fn("total_crashes", r.total_crashes);
  auto& n = r.net;
  fn("net_bytes_sent", n.bytes_sent);
  fn("net_bytes_received", n.bytes_received);
  fn("net_records_sent", n.records_sent);
  fn("net_records_received", n.records_received);
  fn("net_entries_offered", n.entries_offered);
  fn("net_novelty_filtered", n.novelty_filtered);
  fn("net_duplicates_dropped", n.duplicates_dropped);
  fn("net_out_of_order_dropped", n.out_of_order_dropped);
  fn("net_rewinds", n.rewinds);
  fn("net_connects", n.connects);
  fn("net_reconnects", n.reconnects);
  fn("net_heartbeat_timeouts", n.heartbeat_timeouts);
  fn("net_conn_errors", n.conn_errors);
  fn("net_injected_drops", n.injected_drops);
  fn("net_injected_delays", n.injected_delays);
  fn("net_injected_short_writes", n.injected_short_writes);
  fn("net_injected_resets", n.injected_resets);
  fn("net_injected_partitions", n.injected_partitions);
  fn("net_partition_ms", n.partition_ms_total);
  fn("net_log_evicted", n.log_evicted);
  fn("net_lost_to_eviction", n.lost_to_eviction);
  fn("net_deltas_sent", n.deltas_sent);
  fn("net_deltas_received", n.deltas_received);
  fn("net_resyncs_sent", n.resyncs_sent);
  fn("net_resync_skipped", n.resync_skipped);
  fn("net_stale_hellos_dropped", n.stale_hellos_dropped);
  fn("net_epoch_ahead_seen", n.epoch_ahead_seen);
  auto& o = r.oracle;
  fn("oracle_checked", o.checked);
  fn("oracle_accepted", o.accepted);
  fn("oracle_rejected", o.rejected);
  fn("oracle_deltas_exported", o.deltas_exported);
  fn("oracle_cells_exported", o.cells_exported);
  fn("oracle_deltas_applied", o.deltas_applied);
  fn("oracle_cells_applied", o.cells_applied);
  auto& f = r.failover;
  fn("fo_epoch", f.epoch);
  fn("fo_role", f.role);
  fn("fo_leader", f.leader_rank);
  fn("fo_elections", f.elections);
  fn("fo_promotions", f.promotions);
  fn("fo_rehomes", f.rehomes);
  fn("fo_rejoins", f.rejoins);
  fn("fo_fenced", f.fenced);
  fn("fo_handoff_reoffered", f.handoff_reoffered);
  fn("fo_dup_suppressed", f.dup_suppressed);
  fn("fo_deltas_shipped", f.deltas_shipped);
  fn("fo_deltas_applied", f.deltas_applied);
}

// Serialization used across the child pipe (exposed for tests).
std::string encode_half_report(const procfleet::ProcFleetResult& r,
                               bool ok, const std::string& error);
bool decode_half_report(const std::string& text, HalfReport* out);

}  // namespace bigmap::netfleet
