#include "fuzzer/netfleet/failover.h"

#include <signal.h>

#include <algorithm>
#include <utility>

#include "persist/federation.h"
#include "persist/io.h"
#include "util/hash.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMsNs = 1'000'000ull;

// One record (header + payload + CRC) with no file header, for appending
// to an already initialized journal (same shape as the fleet journal's).
template <class Fill>
std::vector<u8> bare_record(persist::RecordType type, Fill&& fill) {
  std::vector<u8> buf;
  persist::PayloadWriter w(buf);
  w.put_u32(static_cast<u32>(type));
  w.put_u32(0);
  const usize payload_start = buf.size();
  fill(w);
  const u32 len = static_cast<u32>(buf.size() - payload_start);
  buf[4] = static_cast<u8>(len);
  buf[5] = static_cast<u8>(len >> 8);
  buf[6] = static_cast<u8>(len >> 16);
  buf[7] = static_cast<u8>(len >> 24);
  const u32 crc = crc32({buf.data(), buf.size()});
  w.put_u32(crc);
  return buf;
}

std::vector<u8> wal_header() {
  std::vector<u8> out;
  bmsp::put_u32_le(out, bmsp::kMagic);
  bmsp::put_u32_le(out, bmsp::kFormatVersion);
  return out;
}

void fold_oracle(corpus::OracleStats& into, const corpus::OracleStats& s) {
  into.checked += s.checked;
  into.accepted += s.accepted;
  into.rejected += s.rejected;
  into.deltas_exported += s.deltas_exported;
  into.cells_exported += s.cells_exported;
  into.deltas_applied += s.deltas_applied;
  into.cells_applied += s.cells_applied;
}

}  // namespace

FailoverMesh::FailoverMesh(SyncEndpoint* inner, u32 gateway_instance,
                           FailoverNodeConfig cfg, OracleFactory factory,
                           FaultInjector* fault,
                           telemetry::MetricRegistry* reg)
    : inner_(inner),
      gateway_(gateway_instance),
      cfg_(std::move(cfg)),
      factory_(std::move(factory)),
      fault_(fault),
      reg_(reg),
      epoch_(std::max<u64>(cfg_.initial_epoch, 1)),
      leader_(cfg_.initial_leader) {
  if (reg_ != nullptr) {
    c_elections_ = &reg_->counter("failover.elections");
    c_promotions_ = &reg_->counter("failover.promotions");
    c_rehomes_ = &reg_->counter("failover.rehomes");
    c_rejoins_ = &reg_->counter("failover.rejoins");
    c_fenced_ = &reg_->counter("failover.fenced");
    c_deltas_shipped_ = &reg_->counter("failover.deltas_shipped");
    c_deltas_applied_ = &reg_->counter("failover.deltas_applied");
    c_dup_suppressed_ = &reg_->counter("failover.dup_suppressed");
    c_handoff_ = &reg_->counter("failover.handoff_reoffered");
  }
  my_oracle_ = make_model();
  load_wal();
}

FailoverMesh::~FailoverMesh() = default;

u32 FailoverMesh::num_instances() const noexcept {
  return inner_->num_instances();
}

bool FailoverMesh::publish(u32 instance, Input input) {
  return inner_->publish(instance, std::move(input));
}

std::vector<Input> FailoverMesh::fetch_new(u32 instance) {
  return inner_->fetch_new(instance);
}

void FailoverMesh::reset_cursor(u32 instance) {
  inner_->reset_cursor(instance);
}

u64 FailoverMesh::total_published() const { return inner_->total_published(); }

SyncHubStats FailoverMesh::stats() const { return inner_->stats(); }

std::unique_ptr<corpus::NoveltyOracle> FailoverMesh::make_model() const {
  return factory_ ? factory_() : nullptr;
}

// ---- Journal -------------------------------------------------------------

void FailoverMesh::load_wal() {
  if (cfg_.wal_path.empty()) return;
  const persist::FaultCtx fault{};  // the federation WAL is not a chaos site
  std::vector<u8> bytes;
  std::string err;
  if (persist::read_file(cfg_.wal_path, &bytes, fault, &err)) {
    // Resume: the last journaled transition is this node's epoch reality.
    const persist::ParsedFile parsed = persist::parse_records(bytes);
    for (const persist::RecordView& r : parsed.records) {
      if (r.type != persist::RecordType::kFederationEpoch) continue;
      persist::FederationEpochRecord rec;
      if (persist::parse_federation_epoch(r.payload, &rec)) {
        epoch_ = std::max(epoch_, rec.epoch);
        leader_ = rec.leader;
      }
    }
    wal_ready_ = true;
    return;
  }
  wal_ready_ =
      persist::write_file_atomic(cfg_.wal_path, wal_header(), fault, &err);
}

void FailoverMesh::journal_epoch(u8 reason) {
  if (!wal_ready_) return;
  persist::FederationEpochRecord rec;
  rec.epoch = epoch_;
  rec.leader = leader_;
  rec.rank = cfg_.rank;
  rec.reason = reason;
  const std::vector<u8> bytes =
      bare_record(persist::RecordType::kFederationEpoch,
                  [&](persist::PayloadWriter& w) {
                    persist::put_federation_epoch(w, rec);
                  });
  std::string err;
  (void)persist::append_file(cfg_.wal_path, bytes, persist::FaultCtx{}, &err);
}

void FailoverMesh::journal_delta(const Input& blob) {
  if (!wal_ready_) return;
  const std::vector<u8> bytes = bare_record(
      persist::RecordType::kVirginDelta,
      [&](persist::PayloadWriter& w) { w.put_bytes(blob); });
  std::string err;
  (void)persist::append_file(cfg_.wal_path, bytes, persist::FaultCtx{}, &err);
}

// ---- Role transitions ----------------------------------------------------

NetPeerConfig FailoverMesh::link_config(bool listener, u32 remote_rank) const {
  NetPeerConfig c = cfg_.link;
  c.epoch = epoch_;
  c.rank = cfg_.rank;
  if (listener) {
    c.listener = true;
    c.listen_fd = remote_rank < cfg_.listen_fds.size()
                      ? cfg_.listen_fds[remote_rank]
                      : -1;
    c.port = 0;
  } else {
    c.listener = false;
    c.listen_fd = -1;
    c.port = remote_rank < cfg_.dial_ports.size()
                 ? cfg_.dial_ports[remote_rank]
                 : 0;
  }
  return c;
}

// Folds the stats of every current link/model into the carried totals and
// destroys the links — re-homing must not erase the old epoch's accounting.
void FailoverMesh::capture_handoff(Peer& p) {
  for (OutRecord& rec : p.link->unacked_records()) {
    // Entries the dead leader never acked get re-offered in the new
    // epoch. Deltas are NOT carried: the full-state snapshot shipped at
    // re-home supersedes every lost incremental.
    if (rec.kind == OutRecord::kEntry) {
      fstats_.handoff_reoffered++;
      bump(c_handoff_);
      pending_broadcast_.push_back(std::move(rec.data));
    }
  }
}

void FailoverMesh::promote(u64 now_ns, bool resumed) {
  role_ = Role::kLeader;
  leader_ = cfg_.rank;
  fstats_.promotions++;
  bump(c_promotions_);
  for (u32 r = 0; r < cfg_.num_nodes; ++r) {
    if (r == cfg_.rank) continue;
    Peer p;
    p.rank = r;
    p.link = std::make_unique<PeerLink>(link_config(/*listener=*/true, r),
                                        fault_, gateway_, reg_);
    p.oracle = make_model();
    peers_.push_back(std::move(p));
  }
  journal_epoch(static_cast<u8>(resumed ? persist::EpochReason::kResumed
                                        : persist::EpochReason::kElected));
  (void)now_ns;
}

void FailoverMesh::rehome(u32 new_leader, u64 now_ns, bool rejoin) {
  role_ = Role::kFollower;
  leader_ = new_leader;
  fstats_.rehomes++;
  bump(c_rehomes_);
  if (rejoin) {
    fstats_.rejoins++;
    bump(c_rejoins_);
  }
  Peer p;
  p.rank = new_leader;
  p.link = std::make_unique<PeerLink>(
      link_config(/*listener=*/false, new_leader), fault_, gateway_, reg_);
  peers_.push_back(std::move(p));
  last_leader_seen_ns_ = now_ns;
  last_delta_ns_ = now_ns;
  journal_epoch(static_cast<u8>(rejoin ? persist::EpochReason::kRejoin
                                       : persist::EpochReason::kElected));
  // Seed the successor's model of us with everything we provably know,
  // without it executing anything: full-state delta first, then the
  // entries the dead leader never acked.
  ship_deltas(peers_[0], /*full=*/true);
  for (Input& in : pending_broadcast_) {
    (void)peers_[0].link->offer(std::move(in));
  }
  pending_broadcast_.clear();
}

void FailoverMesh::retire_links() {
  for (Peer& p : peers_) {
    net_carried_ = sum_link_stats(net_carried_, p.link->stats());
    if (p.oracle != nullptr) fold_oracle(oracle_carried_, p.oracle->stats());
  }
  peers_.clear();
}

// A spoke's leader link went silent past the election timeout (or gave
// up). Successor selection is a pure function of the dead leader's rank,
// so every live spoke converges on the same new epoch without a single
// coordination message. A dead successor just means the next election
// fires one timeout later, walking the ring to the lowest live rank.
void FailoverMesh::elect(u64 now_ns) {
  fstats_.elections++;
  bump(c_elections_);
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  const u32 successor = (leader_ + 1) % cfg_.num_nodes;
  epoch_ += 1;
  if (successor == cfg_.rank) {
    promote(now_ns, /*resumed=*/false);
  } else {
    rehome(successor, now_ns, /*rejoin=*/false);
  }
}

void FailoverMesh::fence(u64 now_ns) {
  role_ = Role::kFenced;
  fstats_.fenced = 1;
  bump(c_fenced_);
  retire_links();
  journal_epoch(static_cast<u8>(persist::EpochReason::kFenced));
  (void)now_ns;
}

// A peer hello carried an epoch ahead of ours: the federation moved on
// without us (we are the resurrected stale node, or we slept through an
// election). Policy decides: fence out forever, or adopt the new epoch
// and re-home to its leader as a spoke.
void FailoverMesh::react_to_newer_epoch(u64 now_ns) {
  u64 observed = 0;
  u32 observed_rank = 0;
  for (const Peer& p : peers_) {
    if (p.link->observed_epoch() > observed) {
      observed = p.link->observed_epoch();
      observed_rank = p.link->observed_rank();
    }
  }
  if (observed <= epoch_) return;
  if (cfg_.stale_fatal) {
    fence(now_ns);
    return;
  }
  for (Peer& p : peers_) capture_handoff(p);
  retire_links();
  epoch_ = observed;
  if (observed_rank == cfg_.rank) {
    // Degenerate (a peer claims we lead an epoch we never saw); take the
    // leadership it expects rather than deadlocking.
    promote(now_ns, /*resumed=*/true);
    return;
  }
  rehome(observed_rank, now_ns, /*rejoin=*/true);
}

void FailoverMesh::start_probe(u64 now_ns) {
  role_ = Role::kProbing;
  const u32 timeout_ms = cfg_.probe_timeout_ms != 0
                             ? cfg_.probe_timeout_ms
                             : 2 * cfg_.election_timeout_ms;
  probe_deadline_ns_ = now_ns + static_cast<u64>(timeout_ms) * kMsNs;
  // Dial every other rank's listener-for-us. Only a rank currently
  // LEADING accepts on that socket, and its hello carries its epoch: a
  // higher one triggers the stale reaction, silence means the federation
  // never elected past us.
  for (u32 r = 0; r < cfg_.num_nodes; ++r) {
    if (r == cfg_.rank) continue;
    Peer p;
    p.rank = r;
    p.link = std::make_unique<PeerLink>(link_config(/*listener=*/false, r),
                                        fault_, gateway_, reg_);
    peers_.push_back(std::move(p));
  }
}

// ---- Steady-state pumping ------------------------------------------------

void FailoverMesh::publish_once(Input in) {
  if (!seen_hashes_.insert(fnv1a64(in)).second) {
    fstats_.dup_suppressed++;
    bump(c_dup_suppressed_);
    return;
  }
  inner_->publish(gateway_, std::move(in));
}

void FailoverMesh::export_gated(Peer& p, const Input& in) {
  // The oracle verdict also advances the remote model: a shipped entry is
  // coverage the peer now has, a rejected one is coverage it already had.
  if (p.oracle != nullptr && !p.oracle->admit(in)) return;
  (void)p.link->offer(in);
}

void FailoverMesh::ship_deltas(Peer& p, bool full) {
  if (my_oracle_ == nullptr) return;
  const std::vector<corpus::OracleDelta> deltas =
      full ? my_oracle_->export_full() : my_oracle_->export_delta();
  for (corpus::OracleDelta d : deltas) {
    d.epoch = epoch_;
    Input blob = corpus::encode_oracle_delta(d);
    journal_delta(blob);
    if (p.link->offer_delta(std::move(blob))) {
      fstats_.deltas_shipped++;
      bump(c_deltas_shipped_);
    }
  }
}

void FailoverMesh::pump_leader(u64 now_ns) {
  // Export: local finds plus anything carried across the epoch boundary,
  // each gated by the per-peer model.
  for (Input& in : inner_->fetch_new(gateway_)) {
    seen_hashes_.insert(fnv1a64(in));
    for (Peer& p : peers_) export_gated(p, in);
  }
  for (Input& in : pending_broadcast_) {
    for (Peer& p : peers_) export_gated(p, in);
  }
  pending_broadcast_.clear();
  for (Peer& p : peers_) p.link->pump(now_ns);
  for (usize i = 0; i < peers_.size(); ++i) {
    for (Input& in : peers_[i].link->take_received()) {
      // The spoke's delta stream keeps its model fresh; the hub does NOT
      // execute received entries against the source model — that is the
      // executor load delta sync removes.
      for (usize j = 0; j < peers_.size(); ++j) {
        if (j != i) export_gated(peers_[j], in);
      }
      publish_once(std::move(in));
    }
    for (Input& blob : peers_[i].link->take_received_deltas()) {
      corpus::OracleDelta d;
      if (!corpus::decode_oracle_delta(blob, &d)) continue;
      if (peers_[i].oracle != nullptr && peers_[i].oracle->apply_delta(d)) {
        fstats_.deltas_applied++;
        bump(c_deltas_applied_);
        journal_delta(blob);
        if (fault_ != nullptr &&
            fault_->fire(FaultSite::kProcKill, gateway_)) {
          ::kill(0, SIGKILL);  // the whole host: coordinator and workers
        }
      }
    }
  }
}

void FailoverMesh::pump_follower(u64 now_ns) {
  Peer& p = peers_[0];
  for (Input& in : inner_->fetch_new(gateway_)) {
    seen_hashes_.insert(fnv1a64(in));
    // Gate exports on our own federation model: what the model already
    // knows, the federation has already seen through this node.
    if (my_oracle_ == nullptr || my_oracle_->admit(in)) {
      (void)p.link->offer(std::move(in));
    }
  }
  if (my_oracle_ != nullptr && cfg_.delta_interval_ms != 0 &&
      now_ns - last_delta_ns_ >=
          static_cast<u64>(cfg_.delta_interval_ms) * kMsNs) {
    last_delta_ns_ = now_ns;
    ship_deltas(p, /*full=*/false);
  }
  p.link->pump(now_ns);
  if (p.link->connected()) last_leader_seen_ns_ = now_ns;
  for (Input& in : p.link->take_received()) {
    // Fold receipts into our model (they are now coverage we have), then
    // publish exactly once across all epochs.
    if (my_oracle_ != nullptr) (void)my_oracle_->admit(in);
    publish_once(std::move(in));
  }
  for (Input& blob : p.link->take_received_deltas()) {
    // Not part of the leader->spoke protocol today, but applying is
    // idempotent and strictly informative.
    corpus::OracleDelta d;
    if (my_oracle_ != nullptr && corpus::decode_oracle_delta(blob, &d)) {
      (void)my_oracle_->apply_delta(d);
    }
  }
  if (cfg_.election_timeout_ms == 0) return;
  if (p.link->stats().gave_up ||
      now_ns - last_leader_seen_ns_ >
          static_cast<u64>(cfg_.election_timeout_ms) * kMsNs) {
    elect(now_ns);
  }
}

void FailoverMesh::pump_probe(u64 now_ns) {
  for (Peer& p : peers_) p.link->pump(now_ns);
  // A probe that ESTABLISHES at our own epoch means that rank still leads
  // the epoch we remember — adopt it as leader and re-home for real (the
  // probe link is at the right epoch but has not shipped our state).
  for (Peer& p : peers_) {
    if (p.link->connected()) {
      const u32 r = p.rank;
      retire_links();
      rehome(r, now_ns, /*rejoin=*/false);
      fstats_.rehomes--;  // a probe resolution, not a new failover
      return;
    }
  }
  if (now_ns >= probe_deadline_ns_) {
    // Silence everywhere: no newer epoch exists. Resume the journaled
    // role at the journaled epoch.
    retire_links();
    if (leader_ == cfg_.rank) {
      promote(now_ns, /*resumed=*/true);
    } else {
      rehome(leader_, now_ns, /*rejoin=*/false);
      journal_epoch(static_cast<u8>(persist::EpochReason::kResumed));
    }
  }
}

void FailoverMesh::pump(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (role_ == Role::kFenced) return;
  if (!started_) {
    started_ = true;
    journal_epoch(static_cast<u8>(persist::EpochReason::kInit));
    if (cfg_.resume_probe) {
      start_probe(now_ns);
    } else if (leader_ == cfg_.rank) {
      promote(now_ns, /*resumed=*/false);
      fstats_.promotions--;  // founding leadership, not a failover win
    } else {
      rehome(leader_, now_ns, /*rejoin=*/false);
      fstats_.rehomes--;  // founding membership, not a failover
    }
  }
  react_to_newer_epoch(now_ns);
  if (role_ == Role::kFenced) return;
  switch (role_) {
    case Role::kLeader: pump_leader(now_ns); break;
    case Role::kFollower: pump_follower(now_ns); break;
    case Role::kProbing: pump_probe(now_ns); break;
    case Role::kFenced: break;
  }
}

void FailoverMesh::shutdown(u64 now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_ || role_ == Role::kFenced || role_ == Role::kProbing) {
    retire_links();
    return;
  }
  // One last export sweep so finds from the final sync interval still
  // reach the federation before the goodbyes.
  if (role_ == Role::kLeader) {
    for (Input& in : inner_->fetch_new(gateway_)) {
      seen_hashes_.insert(fnv1a64(in));
      for (Peer& p : peers_) export_gated(p, in);
    }
  } else if (!peers_.empty()) {
    for (Input& in : inner_->fetch_new(gateway_)) {
      seen_hashes_.insert(fnv1a64(in));
      if (my_oracle_ == nullptr || my_oracle_->admit(in)) {
        (void)peers_[0].link->offer(std::move(in));
      }
    }
    ship_deltas(peers_[0], /*full=*/false);
  }
  for (Peer& p : peers_) p.link->shutdown(now_ns);
  // Entries that arrived during the drain still reach local workers.
  for (Peer& p : peers_) {
    for (Input& in : p.link->take_received()) {
      if (role_ == Role::kFollower && my_oracle_ != nullptr) {
        (void)my_oracle_->admit(in);
      }
      publish_once(std::move(in));
    }
  }
}

FailoverStats FailoverMesh::failover_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  FailoverStats s = fstats_;
  s.epoch = epoch_;
  s.role = static_cast<u32>(role_);
  s.leader_rank = leader_;
  s.net = net_carried_;
  s.oracle = oracle_carried_;
  for (const Peer& p : peers_) {
    s.net = sum_link_stats(s.net, p.link->stats());
    if (p.oracle != nullptr) fold_oracle(s.oracle, p.oracle->stats());
  }
  if (my_oracle_ != nullptr) fold_oracle(s.oracle, my_oracle_->stats());
  return s;
}

}  // namespace bigmap::netfleet
