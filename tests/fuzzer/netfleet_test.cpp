// Tests for the federation tier: wire codec, PeerLink session machine
// (novelty filter, session resume, go-back-N recovery, fault injection,
// fingerprint refusal, epoch fencing, eviction resync), the FailoverMesh
// federation node (gateway bridging, elections, no-election mode), and
// the half-report serialization the federation harness speaks over its
// child pipes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "fuzzer/netfleet/failover.h"
#include "fuzzer/netfleet/federate.h"
#include "fuzzer/netfleet/link.h"
#include "fuzzer/netfleet/transport.h"
#include "fuzzer/netfleet/wire.h"
#include "fuzzer/sync.h"
#include "util/fault.h"

namespace bigmap::netfleet {
namespace {

constexpr u64 kMs = 1'000'000ull;

// ---------------------------------------------------------------- wire --

std::vector<u8> stream_with(const std::vector<Frame>& frames) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  for (const Frame& f : frames) append_frame(bytes, f.type, f.payload);
  return bytes;
}

TEST(WireTest, RoundTripsEveryMessageType) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  HelloMsg hello;
  hello.fingerprint = 0xDEADBEEFu;
  hello.node_id = 7;
  hello.recv_cursor = 42;
  hello.epoch = 3;
  hello.rank = 2;
  hello.log_base = 17;
  append_hello(bytes, hello);
  append_entry(bytes, 9, Input{1, 2, 3});
  append_delta(bytes, 10, Input{0xD0, 0xD1});
  append_cursor(bytes, NetMsg::kHeartbeat, 13);
  append_cursor(bytes, NetMsg::kResync, 21);
  append_cursor(bytes, NetMsg::kBye, 14);

  FrameDecoder dec;
  dec.feed(bytes);

  auto f1 = dec.next();
  ASSERT_TRUE(f1.has_value());
  EXPECT_EQ(f1->type, NetMsg::kHello);
  HelloMsg h;
  ASSERT_TRUE(parse_hello(f1->payload, &h));
  EXPECT_EQ(h.proto_version, kProtocolVersion);
  EXPECT_EQ(h.fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(h.node_id, 7u);
  EXPECT_EQ(h.recv_cursor, 42u);
  EXPECT_EQ(h.epoch, 3u);
  EXPECT_EQ(h.rank, 2u);
  EXPECT_EQ(h.log_base, 17u);

  auto f2 = dec.next();
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f2->type, NetMsg::kEntry);
  u64 seq = 0;
  Input data;
  ASSERT_TRUE(parse_entry(f2->payload, &seq, &data));
  EXPECT_EQ(seq, 9u);
  EXPECT_EQ(data, (Input{1, 2, 3}));

  auto fd = dec.next();
  ASSERT_TRUE(fd.has_value());
  EXPECT_EQ(fd->type, NetMsg::kDelta);
  ASSERT_TRUE(parse_delta(fd->payload, &seq, &data));
  EXPECT_EQ(seq, 10u);
  EXPECT_EQ(data, (Input{0xD0, 0xD1}));

  auto f3 = dec.next();
  ASSERT_TRUE(f3.has_value());
  u64 cursor = 0;
  ASSERT_TRUE(parse_cursor(f3->payload, &cursor));
  EXPECT_EQ(cursor, 13u);

  auto fr = dec.next();
  ASSERT_TRUE(fr.has_value());
  EXPECT_EQ(fr->type, NetMsg::kResync);
  ASSERT_TRUE(parse_cursor(fr->payload, &cursor));
  EXPECT_EQ(cursor, 21u);

  auto f4 = dec.next();
  ASSERT_TRUE(f4.has_value());
  EXPECT_EQ(f4->type, NetMsg::kBye);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_FALSE(dec.broken());
}

TEST(WireTest, DecoderHandlesArbitrarySplitPoints) {
  std::vector<u8> bytes = stream_with({{NetMsg::kEntry, {}}});
  append_entry(bytes, 1, Input{7, 8});

  // Feed one byte at a time; frames must pop out exactly when complete.
  FrameDecoder dec;
  usize frames = 0;
  for (u8 b : bytes) {
    dec.feed({&b, 1});
    while (dec.next().has_value()) ++frames;
  }
  EXPECT_EQ(frames, 2u);
  EXPECT_FALSE(dec.broken());
}

TEST(WireTest, CorruptedFrameBreaksStreamStickily) {
  std::vector<u8> bytes;
  append_preamble(bytes);
  append_entry(bytes, 0, Input{1, 2, 3, 4});
  bytes[bytes.size() - 6] ^= 0x40;  // flip a payload bit under the CRC

  FrameDecoder dec;
  dec.feed(bytes);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());
  EXPECT_NE(dec.error().find("crc"), std::string::npos);

  // Sticky: more (valid) bytes cannot resurrect a torn stream.
  std::vector<u8> more;
  append_entry(more, 1, Input{5});
  dec.feed(more);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());
}

TEST(WireTest, BadPreambleAndOversizeLengthAreRejected) {
  FrameDecoder dec;
  std::vector<u8> junk(8, 0x5A);
  dec.feed(junk);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.broken());

  FrameDecoder small(/*max_payload=*/8);
  std::vector<u8> bytes;
  append_preamble(bytes);
  append_entry(bytes, 0, Input(64, 1));  // payload > 8
  small.feed(bytes);
  EXPECT_FALSE(small.next().has_value());
  EXPECT_TRUE(small.broken());
}

// ---------------------------------------------------------------- link --

struct LinkPair {
  std::unique_ptr<PeerLink> a;  // listener
  std::unique_ptr<PeerLink> b;  // connector
  u64 now = 1 * kMs;

  explicit LinkPair(FaultInjector* fault_a = nullptr,
                    FaultInjector* fault_b = nullptr, u64 fp = 99,
                    u64 fp_b = 0) {
    NetPeerConfig ca;
    ca.listener = true;
    ca.port = 0;  // ephemeral
    ca.session_fingerprint = fp;
    ca.heartbeat_ms = 5;
    ca.peer_timeout_ms = 500;
    ca.reconnect_initial_ms = 1;
    ca.reconnect_cap_ms = 5;
    a = std::make_unique<PeerLink>(ca, fault_a, 0, nullptr);
    EXPECT_TRUE(a->ok()) << a->error();

    NetPeerConfig cb = ca;
    cb.listener = false;
    cb.port = a->listen_port();
    cb.session_fingerprint = fp_b != 0 ? fp_b : fp;
    b = std::make_unique<PeerLink>(cb, fault_b, 0, nullptr);
    EXPECT_TRUE(b->ok()) << b->error();
  }

  // Pumps both sides `rounds` times, advancing fake time by step_ms.
  void pump(int rounds, u64 step_ms = 6) {
    for (int i = 0; i < rounds; ++i) {
      a->pump(now);
      b->pump(now);
      now += step_ms * kMs;
    }
  }
};

TEST(PeerLinkTest, ExchangesEntriesBothWays) {
  LinkPair p;
  p.pump(4);
  ASSERT_TRUE(p.a->connected());
  ASSERT_TRUE(p.b->connected());

  EXPECT_TRUE(p.a->offer(Input{1, 2}));
  EXPECT_TRUE(p.b->offer(Input{3, 4}));
  p.pump(4);

  auto at_b = p.b->take_received();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0], (Input{1, 2}));
  auto at_a = p.a->take_received();
  ASSERT_EQ(at_a.size(), 1u);
  EXPECT_EQ(at_a[0], (Input{3, 4}));
}

TEST(PeerLinkTest, NoveltyFilterSuppressesKnownContent) {
  LinkPair p;
  p.pump(4);

  EXPECT_TRUE(p.a->offer(Input{9, 9}));
  EXPECT_FALSE(p.a->offer(Input{9, 9}));  // sent before: filtered
  p.pump(4);
  ASSERT_EQ(p.b->take_received().size(), 1u);

  // Content that arrived FROM the peer is also known to it — offering it
  // back is filtered, which is what kills the echo loop at the gateway.
  EXPECT_FALSE(p.b->offer(Input{9, 9}));
  EXPECT_EQ(p.a->stats().novelty_filtered, 1u);
  EXPECT_EQ(p.b->stats().novelty_filtered, 1u);
}

TEST(PeerLinkTest, DroppedFramesAreRecoveredByRewind) {
  // Drop the first two entry frames A sends; heartbeat-driven go-back-N
  // must redeliver them in order with no duplicates accepted.
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetDrop, 0, 0});
  plan.triggers.push_back({FaultSite::kNetDrop, 0, 1});
  FaultInjector inj(5, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  EXPECT_TRUE(p.a->offer(Input{1}));
  EXPECT_TRUE(p.a->offer(Input{2}));
  EXPECT_TRUE(p.a->offer(Input{3}));
  p.pump(20);

  auto got = p.b->take_received();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Input{1}));
  EXPECT_EQ(got[1], (Input{2}));
  EXPECT_EQ(got[2], (Input{3}));
  EXPECT_EQ(p.a->stats().injected_drops, 2u);
  EXPECT_GE(p.a->stats().rewinds, 1u);
  EXPECT_EQ(p.b->stats().records_received, 3u);
}

TEST(PeerLinkTest, ConnResetHealsWithSessionResume) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetConnReset, 0, 6});
  FaultInjector inj(6, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  for (u8 i = 0; i < 20; ++i) {
    EXPECT_TRUE(p.a->offer(Input{i, 0x55}));
    p.pump(2);
  }
  p.pump(20);

  std::vector<Input> got = p.b->take_received();
  ASSERT_EQ(got.size(), 20u);
  for (u8 i = 0; i < 20; ++i) EXPECT_EQ(got[i], (Input{i, 0x55}));
  EXPECT_EQ(p.a->stats().injected_resets, 1u);
  // Both sides survived at least one reconnect.
  EXPECT_GE(p.a->stats().connects + p.b->stats().connects, 3u);
}

TEST(PeerLinkTest, ShortWriteTearsFrameButNeverDuplicatesAccepts) {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetShortWrite, 0, 1});
  FaultInjector inj(7, plan);
  LinkPair p(&inj, nullptr);
  p.pump(4);

  for (u8 i = 0; i < 10; ++i) EXPECT_TRUE(p.a->offer(Input{i, 0xCC}));
  p.pump(30);

  std::vector<Input> got = p.b->take_received();
  ASSERT_EQ(got.size(), 10u);
  for (u8 i = 0; i < 10; ++i) EXPECT_EQ(got[i], (Input{i, 0xCC}));
  EXPECT_EQ(p.a->stats().injected_short_writes, 1u);
  // Exactly-once: every accepted sequence is new; replays were dropped as
  // duplicates, not re-accepted.
  EXPECT_EQ(p.b->stats().records_received, 10u);
}

TEST(PeerLinkTest, PartitionPausesThenReconciles) {
  FaultPlan plan;
  // Counted per record put on the wire: the first shipment cuts the link.
  plan.triggers.push_back({FaultSite::kNetPartition, 0, 0});
  FaultInjector inj(8, plan);
  LinkPair p(&inj, nullptr);
  p.a->offer(Input{1});
  p.pump(8);  // connect, deliver, then hit the partition trigger
  ASSERT_EQ(p.a->stats().injected_partitions, 1u);
  EXPECT_TRUE(p.a->stats().partitioned);

  // During the cut, offers keep accumulating locally (graceful
  // degradation: fuzzing continues on local sync).
  for (u8 i = 0; i < 5; ++i) EXPECT_TRUE(p.a->offer(Input{i, 0x77}));
  p.pump(10);

  // Past partition_ms (default 500ms; pump steps 6ms), the link heals and
  // the backlog replays through the resume path.
  p.pump(100);
  std::vector<Input> got = p.b->take_received();
  EXPECT_EQ(got.size(), 6u);
  EXPECT_FALSE(p.a->stats().partitioned);
  EXPECT_EQ(p.a->stats().partition_ms_total, 500u);
}

TEST(PeerLinkTest, FingerprintMismatchIsFatalNotRetried) {
  LinkPair p(nullptr, nullptr, /*fp=*/111, /*fp_b=*/222);
  p.pump(10);
  // At least one side must have refused and latched the failure.
  const bool a_dead = !p.a->ok() || p.a->stats().gave_up;
  const bool b_dead = !p.b->ok() || p.b->stats().gave_up;
  EXPECT_TRUE(a_dead || b_dead);
  EXPECT_GE(p.a->stats().hello_rejected + p.b->stats().hello_rejected, 1u);
}

TEST(PeerLinkTest, PeerSilenceTriggersTimeoutAndReconnectBudget) {
  NetPeerConfig cb;
  cb.listener = false;
  cb.host = "127.0.0.1";
  cb.port = 1;  // nothing listens on port 1
  cb.session_fingerprint = 1;
  cb.reconnect_initial_ms = 1;
  cb.reconnect_cap_ms = 2;
  cb.max_reconnects = 3;
  PeerLink lone(cb, nullptr, 0, nullptr);
  ASSERT_TRUE(lone.ok());
  u64 now = 1 * kMs;
  for (int i = 0; i < 50; ++i) {
    lone.pump(now);
    now += 5 * kMs;
  }
  // The retry budget is exhausted and the link degrades gracefully
  // (dead, not crashed, offers still absorbed locally).
  EXPECT_TRUE(lone.stats().gave_up);
  EXPECT_TRUE(lone.offer(Input{1}));
  EXPECT_LE(lone.stats().connects, 3u);
}

TEST(PeerLinkTest, DeltaRecordsShareReplayLogWithEntries) {
  LinkPair p;
  p.pump(4);
  ASSERT_TRUE(p.a->connected());

  EXPECT_TRUE(p.a->offer(Input{1}));
  EXPECT_TRUE(p.a->offer_delta(Input{0xD0, 0xD0}));
  EXPECT_TRUE(p.a->offer(Input{2}));
  // Deltas are state, not corpus: the novelty filter does not apply, so
  // re-shipping identical bytes is allowed.
  EXPECT_TRUE(p.a->offer_delta(Input{0xD0, 0xD0}));
  p.pump(6);

  auto entries = p.b->take_received();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0], (Input{1}));
  EXPECT_EQ(entries[1], (Input{2}));
  auto deltas = p.b->take_received_deltas();
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0], (Input{0xD0, 0xD0}));
  // One shared sequence space: all four records accepted in order.
  EXPECT_EQ(p.a->stats().deltas_sent, 2u);
  EXPECT_EQ(p.b->stats().deltas_received, 2u);
  EXPECT_EQ(p.b->stats().records_received, 4u);
  EXPECT_EQ(p.b->stats().recv_cursor, 4u);
}

TEST(PeerLinkTest, StaleHelloIsFencedYetTeachesTheNewerEpoch) {
  // Epoch 2 listener vs. epoch 1 dialer: the stale side must never
  // exchange records — but it MUST learn the newer epoch from the
  // listener's own hello. (Regression: fencing used to drop the whole
  // connection, clearing the unflushed hello with it, so a resurrected
  // stale hub probed forever without ever observing the new epoch.)
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.session_fingerprint = 44;
  ca.heartbeat_ms = 5;
  ca.peer_timeout_ms = 100;
  ca.reconnect_initial_ms = 1;
  ca.reconnect_cap_ms = 5;
  ca.epoch = 2;
  ca.rank = 1;
  PeerLink fresh(ca, nullptr, 0, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.error();

  NetPeerConfig cb = ca;
  cb.listener = false;
  cb.port = fresh.listen_port();
  cb.epoch = 1;
  cb.rank = 0;
  PeerLink stale(cb, nullptr, 0, nullptr);
  ASSERT_TRUE(stale.ok()) << stale.error();

  (void)stale.offer(Input{0x5A});
  u64 now = 1 * kMs;
  for (int i = 0; i < 40; ++i) {
    fresh.pump(now);
    stale.pump(now);
    now += 6 * kMs;
  }

  EXPECT_GE(fresh.stats().stale_hellos_dropped, 1u);
  EXPECT_FALSE(fresh.connected());
  EXPECT_TRUE(fresh.take_received().empty());
  EXPECT_EQ(fresh.stats().records_received, 0u);
  // The stale side observed the fresh epoch — the signal its owner needs
  // to rejoin or fence itself.
  EXPECT_GE(stale.stats().epoch_ahead_seen, 1u);
  EXPECT_EQ(stale.observed_epoch(), 2u);
  EXPECT_EQ(stale.observed_rank(), 1u);
}

TEST(PeerLinkTest, CursorRewindPastEvictionForcesFullResync) {
  // A peer resuming from a cursor the bounded replay log has already
  // evicted must be routed through the documented full-resync path:
  // the gap is counted lost, a kResync fast-forwards the receiver, and
  // the exchange resumes — never a silent gap, never a stall.
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.session_fingerprint = 55;
  ca.heartbeat_ms = 5;
  ca.peer_timeout_ms = 200;
  ca.reconnect_initial_ms = 1;
  ca.reconnect_cap_ms = 5;
  ca.send_log_max = 4;
  PeerLink a(ca, nullptr, 0, nullptr);
  ASSERT_TRUE(a.ok()) << a.error();

  NetPeerConfig cb = ca;
  cb.listener = false;
  cb.port = a.listen_port();
  u64 now = 1 * kMs;
  auto pump_both = [&](PeerLink& b, int rounds) {
    for (int i = 0; i < rounds; ++i) {
      a.pump(now);
      b.pump(now);
      now += 6 * kMs;
    }
  };

  {
    PeerLink b(cb, nullptr, 0, nullptr);
    ASSERT_TRUE(b.ok()) << b.error();
    pump_both(b, 4);
    ASSERT_TRUE(a.connected());
    for (u8 i = 0; i < 3; ++i) EXPECT_TRUE(a.offer(Input{i, 0xE0}));
    pump_both(b, 6);
    EXPECT_EQ(b.take_received().size(), 3u);

    // The peer goes silent (no pumps, no acks) while the campaign keeps
    // finding. Acked records trim the log, so eviction needs a
    // transmitted-but-UNACKED backlog: interleave offers with sender
    // pumps so send_pos_ runs ahead, then let the bound bite.
    for (u8 i = 0; i < 10; ++i) {
      EXPECT_TRUE(a.offer(Input{i, 0xE1}));
      a.pump(now);
      now += 3 * kMs;  // below the heartbeat timeout
    }
    EXPECT_GT(a.stats().log_evicted, 0u);
  }  // b dies without a goodbye; its cursor state dies with it

  // A replacement session resumes from cursor 0 — far behind log_base.
  PeerLink b2(cb, nullptr, 0, nullptr);
  ASSERT_TRUE(b2.ok()) << b2.error();
  pump_both(b2, 30);
  EXPECT_TRUE(a.offer(Input{0xFF, 0xE2}));  // exchange must have resumed
  pump_both(b2, 10);

  const LinkStats sa = a.stats();
  const LinkStats sb = b2.stats();
  EXPECT_GT(sa.lost_to_eviction, 0u);
  EXPECT_GE(sa.resyncs_sent, 1u);
  EXPECT_EQ(sb.resync_skipped, sa.lost_to_eviction);
  // No silent gap: every sequence a ever assigned is accounted for as
  // either lost-to-eviction or accepted by the resumed receiver.
  const std::vector<Input> got = b2.take_received();
  EXPECT_EQ(sa.lost_to_eviction + got.size(), sa.send_next);
  EXPECT_EQ(sb.recv_cursor, sa.send_next);
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), (Input{0xFF, 0xE2}));
}

TEST(PeerLinkTest, OversizeEntriesAreRejectedAtOffer) {
  NetPeerConfig ca;
  ca.listener = true;
  ca.port = 0;
  ca.max_entry_size = 4;
  PeerLink link(ca, nullptr, 0, nullptr);
  ASSERT_TRUE(link.ok());
  EXPECT_TRUE(link.offer(Input{1, 2, 3, 4}));
  EXPECT_FALSE(link.offer(Input{1, 2, 3, 4, 5}));
  EXPECT_EQ(link.stats().entries_offered, 1u);
}

// ------------------------------------------------------------ failover --

// FailoverMesh nodes (three by default) wired over a real pre-bound
// listener matrix, driven by fake time from one thread — the in-process
// twin of the forked federation drill, small enough for the sanitizer
// jobs.
struct FailoverRing {
  const u32 n;
  const u32 election_timeout_ms;
  std::vector<std::unique_ptr<SyncHub>> hubs;
  std::vector<std::unique_ptr<FailoverMesh>> meshes;
  std::vector<std::vector<int>> fds;
  std::vector<std::vector<u16>> ports;
  u64 now = 1 * kMs;

  explicit FailoverRing(u32 nodes = 3, u32 election_ms = 120,
                        FaultInjector* fault0 = nullptr)
      : n(nodes),
        election_timeout_ms(election_ms),
        fds(nodes, std::vector<int>(nodes, -1)),
        ports(nodes, std::vector<u16>(nodes, 0)) {
    for (u32 h = 0; h < n; ++h) {
      for (u32 s = 0; s < n; ++s) {
        if (h == s) continue;
        std::string err;
        fds[h][s] = tcp_listen("127.0.0.1", &ports[h][s], &err);
        EXPECT_GE(fds[h][s], 0) << err;
      }
    }
    for (u32 i = 0; i < n; ++i) {
      hubs.push_back(std::make_unique<SyncHub>(2));
      meshes.push_back(make_mesh(i, /*resume_probe=*/false,
                                 /*stale_fatal=*/false,
                                 /*initial_epoch=*/1,
                                 i == 0 ? fault0 : nullptr));
    }
  }

  ~FailoverRing() {
    meshes.clear();
    for (const auto& row : fds) {
      for (int fd : row) {
        if (fd >= 0) ::close(fd);
      }
    }
  }

  std::unique_ptr<FailoverMesh> make_mesh(u32 rank, bool resume_probe,
                                          bool stale_fatal, u64 epoch,
                                          FaultInjector* fault = nullptr) {
    FailoverNodeConfig fc;
    fc.rank = rank;
    fc.num_nodes = n;
    fc.initial_leader = 0;
    fc.initial_epoch = epoch;
    fc.listen_fds.assign(n, -1);
    fc.dial_ports.assign(n, 0);
    for (u32 j = 0; j < n; ++j) {
      if (j == rank) continue;
      fc.listen_fds[j] = fds[rank][j];
      fc.dial_ports[j] = ports[j][rank];
    }
    fc.link.session_fingerprint = 77;
    fc.link.node_id = rank;
    fc.link.heartbeat_ms = 5;
    fc.link.peer_timeout_ms = 60;
    fc.link.reconnect_initial_ms = 1;
    fc.link.reconnect_cap_ms = 5;
    fc.link.partition_ms = 300;
    fc.election_timeout_ms = election_timeout_ms;
    fc.delta_interval_ms = 0;
    fc.resume_probe = resume_probe;
    fc.stale_fatal = stale_fatal;
    fc.probe_timeout_ms = 240;
    return std::make_unique<FailoverMesh>(hubs[rank].get(), 1, fc,
                                          nullptr, fault, nullptr);
  }

  // Pumps every live mesh `rounds` times at 6ms fake steps.
  void pump(int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (auto& m : meshes) {
        if (m != nullptr) m->pump(now);
      }
      now += 6 * kMs;
    }
  }
};

TEST(FailoverTest, TwoNodeGatewayBridgesWithoutEcho) {
  // Two 1-worker fleets, each with a gateway instance (id 1), federated
  // as a pair that never elects.
  FailoverRing pair(2, /*election_ms=*/0);
  FailoverMesh& net_a = *pair.meshes[0];
  FailoverMesh& net_b = *pair.meshes[1];

  // Worker 0 on side A finds something.
  EXPECT_TRUE(net_a.publish(0, Input{0xAB, 0xCD}));
  pair.pump(8);

  // Side B's worker imports it through its ordinary fetch.
  auto got = net_b.fetch_new(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Input{0xAB, 0xCD}));

  // No echo: nothing ever comes back to side A.
  pair.pump(8);
  EXPECT_TRUE(net_a.fetch_new(0).empty());
  EXPECT_EQ(net_a.failover_stats().net.records_received, 0u);
  EXPECT_EQ(net_b.failover_stats().net.records_sent, 0u);

  net_a.shutdown(pair.now);
  net_b.shutdown(pair.now);
}

TEST(FailoverTest, NoElectionPairRidesOutPartitionLongerThanPeerTimeout) {
  // Rank 0's first record on the wire cuts its link for 300ms — five
  // times the 60ms peer timeout, and past the election deadline a
  // self-healing ring of this tuning would use.
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kNetPartition, 1, 0});
  FaultInjector inj(13, plan);
  FailoverRing pair(2, /*election_ms=*/0, &inj);
  pair.pump(8);
  ASSERT_TRUE(pair.meshes[0]->publish(0, Input{0x01, 0x02}));
  pair.pump(4);
  ASSERT_EQ(pair.meshes[0]->failover_stats().net.injected_partitions, 1u);

  // A find on the spoke during the cut waits for the heal.
  ASSERT_TRUE(pair.meshes[1]->publish(0, Input{0x03, 0x04}));
  pair.pump(30);  // 180ms into the cut
  EXPECT_GE(pair.meshes[1]->failover_stats().net.heartbeat_timeouts, 1u);
  EXPECT_TRUE(pair.meshes[0]->fetch_new(0).empty());
  pair.pump(60);  // past the heal

  for (const auto& m : pair.meshes) {
    const FailoverStats s = m->failover_stats();
    EXPECT_EQ(s.elections, 0u);
    EXPECT_EQ(s.promotions, 0u);
    EXPECT_EQ(s.epoch, 1u);
    EXPECT_EQ(s.leader_rank, 0u);
  }
  EXPECT_EQ(pair.meshes[0]->failover_stats().role, 0u);
  EXPECT_EQ(pair.meshes[1]->failover_stats().role, 1u);
  auto at0 = pair.meshes[0]->fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], (Input{0x03, 0x04}));
}

TEST(FailoverTest, ElectsSuccessorRehomesAndFencesStaleNode) {
  FailoverRing ring;
  ring.pump(8);
  EXPECT_EQ(ring.meshes[0]->failover_stats().role, 0u);  // founding leader
  EXPECT_EQ(ring.meshes[1]->failover_stats().role, 1u);
  EXPECT_EQ(ring.meshes[2]->failover_stats().role, 1u);

  // Epoch-1 exchange: a find on node 1 reaches node 0 and node 2.
  EXPECT_TRUE(ring.meshes[1]->publish(0, Input{0xAA, 0xBB}));
  ring.pump(10);
  auto at0 = ring.meshes[0]->fetch_new(0);
  auto at2 = ring.meshes[2]->fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], (Input{0xAA, 0xBB}));
  ASSERT_EQ(at2.size(), 1u);

  // Kill the leader. Its listener sockets stay bound (the parent-held
  // matrix), so spokes see connects that never hello — exactly the
  // silence the election timeout is specified against.
  ring.meshes[0].reset();
  ring.pump(60);  // > election_timeout at 6ms steps

  const FailoverStats s1 = ring.meshes[1]->failover_stats();
  const FailoverStats s2 = ring.meshes[2]->failover_stats();
  EXPECT_EQ(s1.epoch, 2u);
  EXPECT_EQ(s1.role, 0u);  // succ(0) == 1 promoted itself
  EXPECT_EQ(s1.leader_rank, 1u);
  EXPECT_EQ(s1.elections, 1u);
  EXPECT_EQ(s1.promotions, 1u);
  EXPECT_EQ(s2.epoch, 2u);
  EXPECT_EQ(s2.role, 1u);  // re-homed spoke
  EXPECT_EQ(s2.leader_rank, 1u);
  EXPECT_EQ(s2.elections, 1u);
  EXPECT_GE(s2.rehomes, 1u);

  // Exchange works in the new epoch.
  EXPECT_TRUE(ring.meshes[2]->publish(0, Input{0xCC, 0xDD}));
  ring.pump(10);
  auto at1 = ring.meshes[1]->fetch_new(0);
  ASSERT_EQ(at1.size(), 1u);
  EXPECT_EQ(at1[0], (Input{0xCC, 0xDD}));

  // Resurrect rank 0 as a stale-fatal prober at its journaled epoch 1:
  // it must observe epoch 2 from the new leader and latch fenced — the
  // split-brain rejection — while the leader fences its hello out.
  ring.meshes[0] = ring.make_mesh(0, /*resume_probe=*/true,
                                  /*stale_fatal=*/true, /*epoch=*/1);
  ring.pump(30);
  const FailoverStats s0 = ring.meshes[0]->failover_stats();
  EXPECT_EQ(s0.fenced, 1u);
  EXPECT_EQ(s0.role, 3u);
  EXPECT_GE(s0.net.epoch_ahead_seen, 1u);
  EXPECT_GE(ring.meshes[1]->failover_stats().net.stale_hellos_dropped, 1u);
  // Fenced means out: node 0 exchanges nothing ever again.
  EXPECT_TRUE(ring.meshes[0]->fetch_new(0).empty());
}

TEST(FailoverTest, ResumeProbeFindsUnchangedLeaderAndRejoinsQuietly) {
  FailoverRing ring;
  ring.pump(8);
  // Node 2 restarts while the epoch-1 leader is alive and well: the probe
  // must resolve to the journaled topology without an election.
  ring.meshes[2] = ring.make_mesh(2, /*resume_probe=*/true,
                                  /*stale_fatal=*/false, /*epoch=*/1);
  ring.pump(20);
  const FailoverStats s2 = ring.meshes[2]->failover_stats();
  EXPECT_EQ(s2.epoch, 1u);
  EXPECT_EQ(s2.role, 1u);
  EXPECT_EQ(s2.leader_rank, 0u);
  EXPECT_EQ(s2.elections, 0u);
  EXPECT_EQ(s2.fenced, 0u);

  EXPECT_TRUE(ring.meshes[2]->publish(0, Input{0x11, 0x22}));
  ring.pump(10);
  auto at0 = ring.meshes[0]->fetch_new(0);
  ASSERT_EQ(at0.size(), 1u);
  EXPECT_EQ(at0[0], (Input{0x11, 0x22}));
}

// ------------------------------------------------------------ federate --

TEST(FederateTest, HalfReportRoundTrips) {
  procfleet::ProcFleetResult r;
  r.found_bug_ids = {3, 1, 7};
  r.found_stack_hashes = {0xAAAA, 0xBBBB};
  r.total_execs = 12345;
  r.total_interesting = 67;
  r.total_crashes = 8;
  r.net.records_sent = 11;
  r.net.records_received = 22;
  r.net.novelty_filtered = 33;
  r.net.reconnects = 2;
  r.net.partition_ms_total = 500;
  r.net.lost_to_eviction = 1;
  r.net.deltas_sent = 5;
  r.net.deltas_received = 4;
  r.net.resyncs_sent = 1;
  r.net.resync_skipped = 9;
  r.net.stale_hellos_dropped = 3;
  r.net.epoch_ahead_seen = 2;
  r.oracle.deltas_exported = 6;
  r.oracle.cells_exported = 60;
  r.oracle.deltas_applied = 7;
  r.oracle.cells_applied = 70;
  r.failover.epoch = 4;
  r.failover.role = 1;
  r.failover.leader_rank = 2;
  r.failover.elections = 1;
  r.failover.promotions = 1;
  r.failover.rehomes = 2;
  r.failover.rejoins = 1;
  r.failover.fenced = 1;
  r.failover.handoff_reoffered = 8;
  r.failover.dup_suppressed = 12;
  r.failover.deltas_shipped = 13;
  r.failover.deltas_applied = 14;

  HalfReport h;
  ASSERT_TRUE(decode_half_report(encode_half_report(r, true, ""), &h));
  EXPECT_TRUE(h.ok);
  EXPECT_EQ(h.bug_ids, (std::vector<u32>{3, 1, 7}));
  EXPECT_EQ(h.stack_hashes, (std::vector<u64>{0xAAAA, 0xBBBB}));
  EXPECT_EQ(h.total_execs, 12345u);
  EXPECT_EQ(h.total_interesting, 67u);
  EXPECT_EQ(h.total_crashes, 8u);
  EXPECT_FALSE(h.all_completed);  // empty worker list
  EXPECT_EQ(h.net.records_sent, 11u);
  EXPECT_EQ(h.net.records_received, 22u);
  EXPECT_EQ(h.net.novelty_filtered, 33u);
  EXPECT_EQ(h.net.reconnects, 2u);
  EXPECT_EQ(h.net.partition_ms_total, 500u);
  EXPECT_EQ(h.net.lost_to_eviction, 1u);
  EXPECT_EQ(h.net.deltas_sent, 5u);
  EXPECT_EQ(h.net.deltas_received, 4u);
  EXPECT_EQ(h.net.resyncs_sent, 1u);
  EXPECT_EQ(h.net.resync_skipped, 9u);
  EXPECT_EQ(h.net.stale_hellos_dropped, 3u);
  EXPECT_EQ(h.net.epoch_ahead_seen, 2u);
  EXPECT_EQ(h.oracle.deltas_exported, 6u);
  EXPECT_EQ(h.oracle.cells_exported, 60u);
  EXPECT_EQ(h.oracle.deltas_applied, 7u);
  EXPECT_EQ(h.oracle.cells_applied, 70u);
  EXPECT_EQ(h.failover.epoch, 4u);
  EXPECT_EQ(h.failover.role, 1u);
  EXPECT_EQ(h.failover.leader_rank, 2u);
  EXPECT_EQ(h.failover.elections, 1u);
  EXPECT_EQ(h.failover.promotions, 1u);
  EXPECT_EQ(h.failover.rehomes, 2u);
  EXPECT_EQ(h.failover.rejoins, 1u);
  EXPECT_EQ(h.failover.fenced, 1u);
  EXPECT_EQ(h.failover.handoff_reoffered, 8u);
  EXPECT_EQ(h.failover.dup_suppressed, 12u);
  EXPECT_EQ(h.failover.deltas_shipped, 13u);
  EXPECT_EQ(h.failover.deltas_applied, 14u);

  // Every key of the codec table, each set to a distinct value: a key that
  // aliased another's field, or failed to parse, would come back wrong.
  procfleet::ProcFleetResult all;
  std::set<std::string> keys;
  u64 calls = 0;
  for_each_report_field(all, [&](const char* key, auto& v) {
    keys.insert(key);
    v = static_cast<std::remove_reference_t<decltype(v)>>(1000 + calls++);
  });
  EXPECT_EQ(calls, 49u);
  EXPECT_EQ(keys.size(), calls);
  HalfReport back;
  ASSERT_TRUE(decode_half_report(encode_half_report(all, true, ""), &back));
  u64 expect = 1000;
  for_each_report_field(back, [&](const char* key, const auto& v) {
    EXPECT_EQ(static_cast<u64>(v), expect++) << key;
  });
}

TEST(FederateTest, FailureReportCarriesError) {
  HalfReport h;
  ASSERT_TRUE(decode_half_report(
      encode_half_report(procfleet::ProcFleetResult{}, false,
                         "segment attach refused"),
      &h));
  EXPECT_FALSE(h.ok);
  EXPECT_EQ(h.error, "segment attach refused");

  HalfReport none;
  EXPECT_FALSE(decode_half_report("", &none));
  EXPECT_FALSE(decode_half_report("garbage text\n", &none));
}

}  // namespace
}  // namespace bigmap::netfleet
