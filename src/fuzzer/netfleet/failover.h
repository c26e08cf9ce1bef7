// FailoverMesh: the federation node — a SyncEndpoint gateway that joins a
// local hub to the other coordinators of a static federation over
// PeerLinks, and survives the death of whichever node currently leads.
//
// Campaigns see only the SyncEndpoint interface (sync.h), so federation is
// a wrapper, not a fuzzing-loop change: every endpoint call passes through
// to the wrapped inner hub (ShmHub for process fleets, SyncHub in tests),
// and one extra inner instance — the *gateway instance* — stands for the
// rest of the federation:
//
//   local find  -> inner.publish(worker) -> pump: inner.fetch_new(gateway)
//               -> link.offer()          -> wire -> remote gateway
//   remote find -> link.take_received()  -> inner.publish(gateway)
//               -> workers import it via their ordinary fetch_new
//
// fetch_new never returns an instance's own publishes, so imports are
// never re-exported through the normal path — no echo loop by
// construction.
//
// Topology.  Ranks are [0, num_nodes). Exactly one rank leads an
// **epoch** and holds one link per other rank (the hub of a star); the
// others follow with one link to the leader (spokes). The leader relays
// each spoke's finds to every other spoke, so a star behaves like a full
// mesh one hop later. A pair is the 2-node case. The wiring is pre-bound
// by the harness: for every ordered pair (leader h, spoke s) there is a
// listening socket L[h][s] the parent bound before forking, so any rank
// can assume leadership without coordination — its listeners already
// exist, and re-homing spokes simply dial the successor's well-known port.
//
//   Election.  Spokes detect hub death locally: the leader link silent
//   (never connected/hello'd) past election_timeout_ms, or its reconnect
//   budget exhausted. There is no gossip round — the successor is the
//   deterministic function succ(leader) = (leader + 1) % num_nodes, and
//   the epoch advances by exactly one, so every live spoke independently
//   computes the same (successor, epoch) pair. If the successor is itself
//   dead, the new epoch's leader link stays silent and the next election
//   fires, walking the ring until a live rank leads. The lowest-rank LIVE
//   node therefore ends up leading, one election-timeout per dead rank.
//   election_timeout_ms = 0 disables elections: the founding leader leads
//   for good, and a cut of any length is ridden out by the links.
//
//   Epoch fencing.  Every hello carries the sender's epoch (wire.h v2).
//   PeerLink refuses cross-epoch sessions both ways; a hello from a NEWER
//   epoch is surfaced here via observed_epoch(). A resurrected stale hub
//   probes (resume_probe), observes the successor's higher epoch, and
//   either latches stale-fatal (stale_fatal=true: fenced out for good, the
//   drill's split-brain proof) or rejoins the new epoch as a spoke.
//
//   Cursor handoff.  Links are per-epoch; the replay log is not. When a
//   spoke re-homes it carries the old link's unacked suffix and re-offers
//   it on the new session, so nothing the dead hub never acked is lost.
//   A cross-epoch content-hash seen-set gates every gateway publish, so
//   nothing is double-accepted either — together: exactly-once across the
//   epoch boundary.
//
//   Novelty oracle.  With an oracle factory, every link carries a
//   corpus::NoveltyOracle as its remote model: an entry is shipped only
//   when it would flip virgin bits in the receiver's coverage — a deeper
//   gate than the link's content-hash filter, and the reason a saturated
//   federation's wire goes quiet. Without a factory the links filter by
//   content hash only.
//
//   Oracle delta sync.  Followers ship compact virgin-map deltas of their
//   own federation model (corpus::OracleDelta over the kDelta frame) on a
//   steady cadence, and a full-state snapshot on every (re)home. The
//   leader keeps its per-peer models current by APPLYING those records —
//   zero candidate re-executions — and gates relays with them.
//
//   Journal.  Epoch transitions and delta records are appended to a
//   federation WAL (persist/federation.h) for resume (a restarted node
//   recovers its last epoch) and for statecheck's post-drill audit.
//
//   Chaos.  `fault` drives the links' kNet* sites on the gateway instance.
//   The leader also counts one kProcKill occurrence per applied delta
//   record on that instance; when it fires, the node SIGKILLs its own
//   process group (coordinator and workers: a host dying), so a drill
//   kills the leader at a point of federation progress, not of the clock.
//
// Thread-safety: endpoint calls pass through to the (thread-safe) inner
// hub; the links and oracles are single-threaded, so offer/take/pump/
// shutdown serialize behind one mutex.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "corpus/novelty.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/sync.h"

namespace bigmap::netfleet {

// A process fleet federates when num_nodes >= 2.
struct FailoverNodeConfig {
  // Static identity. Ranks are [0, num_nodes); initial_leader leads
  // initial_epoch. Epoch 0 is reserved (epoch-agnostic links), so
  // initial_epoch must be >= 1.
  u32 rank = 0;
  u32 num_nodes = 0;
  u32 initial_leader = 0;
  u64 initial_epoch = 1;

  // Pre-bound wiring. listen_fds[s] is OUR listener that rank s dials
  // when WE lead (-1 at index == rank). dial_ports[r] is the port WE dial
  // when rank r leads. Both sized num_nodes.
  std::vector<int> listen_fds;
  std::vector<u16> dial_ports;

  // Per-link template: fingerprint, node id, liveness/backoff tuning,
  // chaos wiring. listener/port/epoch/rank fields are overwritten per
  // link.
  NetPeerConfig link;

  // Leader-link silence (never established) before a spoke declares the
  // leader dead and elects; 0 never elects. Must comfortably exceed the
  // link's own peer_timeout + reconnect backoff so transient faults heal
  // in-session.
  u32 election_timeout_ms = 600;

  // Steady-state oracle delta cadence on follower links (0 = only the
  // full-state snapshot at (re)home time).
  u32 delta_interval_ms = 40;

  // Resurrected-node behavior. resume_probe: before acting on the
  // journaled role, dial every other rank and listen for a newer epoch;
  // on silence, resume the prior role. stale_fatal: when a newer epoch is
  // observed, latch fenced (refuse to participate ever again) instead of
  // rejoining it.
  bool resume_probe = false;
  bool stale_fatal = false;
  u32 probe_timeout_ms = 0;  // 0 -> 2 * election_timeout_ms

  // Federation WAL path (empty = no journaling, no epoch resume).
  std::string wal_path;
};

struct FailoverStats {
  u64 epoch = 0;
  u32 role = 0;  // 0 leader, 1 follower, 2 probing, 3 fenced
  u32 leader_rank = 0;
  u64 elections = 0;    // leader deaths this node detected
  u64 promotions = 0;   // elections this node won
  u64 rehomes = 0;      // re-homes to a successor (incl. rejoins)
  u64 rejoins = 0;      // re-homes caused by observing a newer epoch
  u64 fenced = 0;       // 1 when stale-fatal latched
  u64 handoff_reoffered = 0;  // unacked entries re-offered across an epoch
  u64 dup_suppressed = 0;     // cross-epoch duplicate publishes suppressed
  u64 deltas_shipped = 0;     // delta records offered to the wire
  u64 deltas_applied = 0;     // delta records applied to per-peer models
  LinkStats net;              // aggregate over this node's current links
  corpus::OracleStats oracle;  // aggregate over this node's models
};

class FailoverMesh final : public SyncEndpoint {
 public:
  using OracleFactory =
      std::function<std::unique_ptr<corpus::NoveltyOracle>()>;

  // `inner` must outlive the node and must have been created with one
  // more instance than the fleet's workers; that extra (highest) id is
  // `gateway_instance`. `factory` builds one fresh remote model per peer
  // link (may be null / return null: content-hash filtering only, no
  // delta sync). `fault` drives the chaos sites above; `reg` receives
  // failover.* and netfleet.* counters.
  FailoverMesh(SyncEndpoint* inner, u32 gateway_instance,
               FailoverNodeConfig cfg, OracleFactory factory,
               FaultInjector* fault, telemetry::MetricRegistry* reg);
  ~FailoverMesh() override;

  u32 num_instances() const noexcept override;
  bool publish(u32 instance, Input input) override;
  std::vector<Input> fetch_new(u32 instance) override;
  void reset_cursor(u32 instance) override;
  u64 total_published() const override;
  SyncHubStats stats() const override;

  // Drives links, elections, delta sync, and epoch reactions; call from
  // the coordinator loop every few milliseconds.
  void pump(u64 now_ns);

  // Final export sweep, link drains, goodbye. Fenced nodes no-op.
  void shutdown(u64 now_ns);

  FailoverStats failover_stats() const;

 private:
  enum class Role { kLeader, kFollower, kProbing, kFenced };

  struct Peer {
    u32 rank = 0;
    std::unique_ptr<PeerLink> link;
    std::unique_ptr<corpus::NoveltyOracle> oracle;  // leader-side model
  };

  void journal_epoch(u8 reason);
  void journal_delta(const Input& blob);
  void load_wal();
  NetPeerConfig link_config(bool listener, u32 remote_rank) const;
  std::unique_ptr<corpus::NoveltyOracle> make_model() const;
  void publish_once(Input in);
  void export_gated(Peer& p, const Input& in);
  void start_probe(u64 now_ns);
  void promote(u64 now_ns, bool resumed);
  void rehome(u32 new_leader, u64 now_ns, bool rejoin);
  void elect(u64 now_ns);
  void react_to_newer_epoch(u64 now_ns);
  void fence(u64 now_ns);
  void capture_handoff(Peer& p);
  void retire_links();
  void ship_deltas(Peer& p, bool full);
  void pump_leader(u64 now_ns);
  void pump_follower(u64 now_ns);
  void pump_probe(u64 now_ns);
  void bump(telemetry::Counter* c, u64 n = 1) {
    if (c != nullptr) c->add(n);
  }

  SyncEndpoint* inner_;
  const u32 gateway_;
  const FailoverNodeConfig cfg_;
  OracleFactory factory_;
  FaultInjector* fault_;
  telemetry::MetricRegistry* reg_;

  Role role_ = Role::kFollower;
  u64 epoch_ = 1;
  u32 leader_ = 0;

  std::vector<Peer> peers_;
  // Follower-side model of everything this node has seen through the
  // federation (gates exports; the source of the shipped deltas). Owned
  // for the node's whole life — it is the state that crosses epochs.
  std::unique_ptr<corpus::NoveltyOracle> my_oracle_;

  // Cross-epoch exactly-once: content hashes of every entry this node has
  // published under the gateway or exported from its own fleet.
  std::unordered_set<u64> seen_hashes_;
  // Entries carried over an epoch boundary, awaiting re-offer (leader:
  // broadcast to every spoke; set only at promotion).
  std::vector<Input> pending_broadcast_;

  u64 last_leader_seen_ns_ = 0;
  u64 last_delta_ns_ = 0;
  u64 probe_deadline_ns_ = 0;
  bool wal_ready_ = false;
  bool started_ = false;

  // Accounting of links/models already destroyed by role transitions, so
  // re-homing never erases the old epoch's stats.
  LinkStats net_carried_;
  corpus::OracleStats oracle_carried_;

  FailoverStats fstats_;
  mutable std::mutex mu_;

  telemetry::Counter* c_elections_ = nullptr;
  telemetry::Counter* c_promotions_ = nullptr;
  telemetry::Counter* c_rehomes_ = nullptr;
  telemetry::Counter* c_rejoins_ = nullptr;
  telemetry::Counter* c_fenced_ = nullptr;
  telemetry::Counter* c_deltas_shipped_ = nullptr;
  telemetry::Counter* c_deltas_applied_ = nullptr;
  telemetry::Counter* c_dup_suppressed_ = nullptr;
  telemetry::Counter* c_handoff_ = nullptr;
};

}  // namespace bigmap::netfleet
