// The traced run: per-layer metrics, measured only from outside the
// program. Spans are timed around calls into each layer's public functions
// (Interpreter, the metrics, the map classes, Executor, Mutator, SeedQueue,
// CheckpointStore, CorpusStore, ShmHub); counts come from what
// CampaignResult / ProcFleetResult already report. The one hook is an
// ExecHook that timestamps every exec, and its cost is itself reported as
// bench.trace_overhead_pct.
#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>

#include "core/flat_map.h"
#include "core/two_level_map.h"
#include "corpus/store.h"
#include "fuzzer/executor.h"
#include "fuzzer/mutator.h"
#include "fuzzer/procfleet/shm_hub.h"
#include "fuzzer/queue.h"
#include "persist/checkpoint.h"
#include "telemetry/sink.h"
#include "util/hash.h"
#include "util/timing.h"
#include "workloads.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Replay passes aim for this much time per group of measured calls.
constexpr double kReplaySeconds = 0.4;
constexpr u32 kMinPasses = 3;
constexpr u32 kMaxPasses = 30;
// Overhead rounds (plain / hooked / sink campaigns): at least kMinRounds,
// more while the run's --seconds last.
constexpr u32 kMinRounds = 2;
constexpr u32 kMaxRounds = 12;

// Results of timed calls are stored here so they are never optimised away.
volatile u32 g_keep_live = 0;

template <class F>
double time_ns(F&& f) {
  const u64 start = monotonic_ns();
  f();
  return static_cast<double>(monotonic_ns() - start);
}

double pct_drop(double base, double with) {
  return base > 0 ? (base - with) / base * 100.0 : 0.0;
}

// Timestamps every execution of a campaign.
class ExecClock final : public ExecHook {
 public:
  explicit ExecClock(u64 execs) { stamps_.reserve(execs); }
  void on_exec(u64) override { stamps_.push_back(monotonic_ns()); }
  void append_intervals_us(std::vector<double>& out) const {
    for (usize i = 1; i < stamps_.size(); ++i) {
      out.push_back(static_cast<double>(stamps_[i] - stamps_[i - 1]) * 1e-3);
    }
  }

 private:
  std::vector<u64> stamps_;
};

// --- target / instrumentation / core / executor / queue / mutator ----------

// Per-input minimum over replay passes: interference from other work on
// the host only ever adds time, so an input's fastest run is the steadiest
// estimate of its cost.
class MinTimes {
 public:
  explicit MinTimes(usize inputs) : ns_(inputs, 1e300) {}
  void record(usize input, double ns) {
    ns_[input] = std::min(ns_[input], ns);
  }
  const std::vector<double>& per_input() const noexcept { return ns_; }
  double mean() const {
    double total = 0;
    for (double v : ns_) total += v;
    return ns_.empty() ? 0.0 : total / static_cast<double>(ns_.size());
  }

 private:
  std::vector<double> ns_;
};

struct ReplayFigures {
  explicit ReplayFigures(usize inputs)
      : run(inputs), visit(inputs), update(inputs), traced(inputs),
        untraced(inputs), hash_run(inputs) {}
  // Interpreter alone, + metric.visit, + map.update.
  MinTimes run, visit, update;
  double steps_per_run = 0;
  std::vector<double> reset, classify, compare, classify_compare, hash;
  double used_key = 0;
  // Executor::run / run_untraced / run_for_hash.
  MinTimes traced, untraced, hash_run;
  std::vector<double> update_scores, cull;
  std::vector<double> havoc, splice;
  std::vector<double> add_entry_us;
  double compact_ms = 0;
  double wal_bytes_per_entry = 0;
  double replay_dedup_ratio = 0;
  std::vector<double> shm_publish, shm_fetch;
};

// Replay passes for a pass of `pass_ns` to fill about kReplaySeconds.
u32 passes_for(double pass_ns) {
  const double want = kReplaySeconds * 1e9 / std::max(pass_ns, 1.0);
  return std::clamp<u32>(static_cast<u32>(want) + 1, kMinPasses, kMaxPasses);
}

template <class Map, class Metric>
void replay_layers(const Target& t, const CampaignConfig& cfg,
                   const std::vector<Input>& corpus,
                   const std::string& work_dir, ReplayFigures& f,
                   Outcome& outcome) {
  const Program& prog = t.program;
  // The campaign's own block-ID derivation, so the replayed map sees the
  // keys (and used_key) the campaign saw.
  const BlockIdTable ids(prog.blocks.size(), cfg.map.map_size,
                         mix64(cfg.seed ^ 0xB10C1D5ULL));
  Interpreter interp(cfg.step_budget, cfg.work_per_block);
  Metric metric(ids);
  Map map(cfg.map);

  // One untimed pass sizes the replay and counts steps.
  u64 steps = 0;
  const double pass_ns = time_ns([&] {
    for (const Input& in : corpus) {
      steps += interp.run(prog, in, [](u32) {}).steps;
    }
  });
  f.steps_per_run =
      static_cast<double>(steps) / static_cast<double>(corpus.size());
  const u32 passes = passes_for(3 * pass_ns);

  // target: the interpreter alone (empty block callback); instrumentation:
  // + the metric's key computation; core: + the map update. Interleaved
  // per input so all three see the same host conditions.
  u32 sink = 0;
  for (u32 p = 0; p < passes; ++p) {
    for (usize i = 0; i < corpus.size(); ++i) {
      const Input& in = corpus[i];
      f.run.record(i, time_ns([&] { interp.run(prog, in, [](u32) {}); }));
      metric.begin_execution();
      f.visit.record(i, time_ns([&] {
        interp.run(prog, in, [&](u32 b) { sink ^= metric.visit(b); });
      }));
      map.reset();
      metric.begin_execution();
      f.update.record(i, time_ns([&] {
        interp.run(prog, in, [&](u32 b) { map.update(metric.visit(b)); });
      }));
    }
  }

  // core whole-map operations, per call on the state one input leaves.
  usize positions_tracked = map.map_size();
  if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
    positions_tracked = map.condensed_size();
  }
  VirginMap virgin(positions_tracked, cfg.map.backing());
  VirginMap virgin_fused(virgin.size(), cfg.map.backing());
  const auto replay_into_map = [&](const Input& in) {
    map.reset();
    metric.begin_execution();
    interp.run(prog, in, [&](u32 b) { map.update(metric.visit(b)); });
  };
  for (u32 p = 0; p < kMinPasses; ++p) {
    for (const Input& in : corpus) {
      replay_into_map(in);
      f.classify.push_back(time_ns([&] { map.classify(); }));
      f.compare.push_back(time_ns([&] { (void)map.compare_update(virgin); }));
      f.hash.push_back(time_ns([&] { sink ^= map.hash(); }));
      f.reset.push_back(time_ns([&] { map.reset(); }));
      replay_into_map(in);
      f.classify_compare.push_back(
          time_ns([&] { (void)map.classify_and_compare(virgin_fused); }));
    }
  }
  if constexpr (Map::kScheme == MapScheme::kTwoLevel) {
    f.used_key = map.used_key();
  } else {
    f.used_key = static_cast<double>(virgin.count_covered());
  }
  g_keep_live = sink;  // the timed visit and hash results are used

  // fuzzer (executor): the three execution paths a campaign uses. The
  // first pass clears the virgin maps, as a long campaign's would be.
  Executor<Map, Metric> ex(prog, cfg.map, ids, cfg.step_budget,
                           cfg.work_per_block);
  OpTimeBreakdown tb;
  const double ex_pass_ns = time_ns([&] {
    for (const Input& in : corpus) (void)ex.run(in, tb);
  });
  const u32 ex_passes = passes_for(3 * ex_pass_ns);
  for (u32 p = 0; p < ex_passes; ++p) {
    for (usize i = 0; i < corpus.size(); ++i) {
      const Input& in = corpus[i];
      f.traced.record(i, time_ns([&] { (void)ex.run(in, tb); }));
      f.untraced.record(i, time_ns([&] { (void)ex.run_untraced(in, tb); }));
      f.hash_run.record(i, time_ns([&] { (void)ex.run_for_hash(in, tb); }));
    }
  }

  // fuzzer (schedule): SeedQueue over the final corpus; corpus: the same
  // entries into a fresh CorpusStore with their coverage positions.
  SeedQueue queue(ex.virgin_positions());
  const std::string store_dir = work_dir + "/replay-corpus";
  corpus::CorpusStore store(store_dir);
  const corpus::OpenReport open = store.open(/*fresh=*/true);
  outcome.check(open.ok, "trace: corpus store open: " + open.error);
  std::vector<u32> positions;
  for (usize i = 0; i < corpus.size(); ++i) {
    const auto out = ex.run(corpus[i], tb);
    const usize idx = queue.add(corpus[i], out.exec_ns, out.hash, 0);
    const std::span<const u8> trace = ex.last_trace();
    f.update_scores.push_back(
        time_ns([&] { queue.update_scores(idx, trace); }));
    f.cull.push_back(time_ns([&] { queue.cull(); }));
    positions.clear();
    for (usize pos = 0; pos < trace.size(); ++pos) {
      if (trace[pos] != 0) positions.push_back(static_cast<u32>(pos));
    }
    bool durable = false;
    f.add_entry_us.push_back(1e-3 * time_ns([&] {
      (void)store.add_entry(corpus[i], out.exec_ns, out.hash, 0, positions,
                            nullptr, &durable);
    }));
    outcome.check(durable, "trace: corpus append did not reach disk");
  }
  const corpus::CorpusStats cs = store.stats();
  f.wal_bytes_per_entry = cs.wal_appends > 0
                              ? static_cast<double>(cs.wal_bytes) /
                                    static_cast<double>(cs.wal_appends)
                              : 0;
  f.replay_dedup_ratio =
      static_cast<double>(cs.dedup_hits) /
      static_cast<double>(std::max<u64>(1, cs.wal_appends + cs.dedup_hits));
  std::string err;
  bool compacted = false;
  f.compact_ms = 1e-6 * time_ns([&] { compacted = store.compact(&err); });
  outcome.check(compacted, "trace: corpus compaction: " + err);
  fs::remove_all(store_dir);

  // fuzzer (mutate): havoc and splice per call, in batches so the clock
  // read does not dominate a sub-microsecond operation.
  Mutator mut({cfg.max_input_size, cfg.havoc_stack_pow, cfg.dictionary},
              cfg.seed);
  constexpr usize kBatch = 32;
  std::vector<Input> batch(kBatch);
  for (usize round = 0; round < 200; ++round) {
    for (usize k = 0; k < kBatch; ++k) {
      batch[k] = corpus[(round * kBatch + k) % corpus.size()];
    }
    f.havoc.push_back(time_ns([&] {
      for (Input& in : batch) mut.havoc(in);
    }) / kBatch);
    usize spliced = 0;
    const double ns = time_ns([&] {
      for (usize k = 0; k + 1 < kBatch; ++k) {
        spliced += mut.splice(batch[k], batch[k + 1]).has_value();
      }
    });
    if (spliced > 0) f.splice.push_back(ns / static_cast<double>(kBatch - 1));
  }

  // fuzzer/procfleet: the shm publish ring, publish and fetch per record.
  procfleet::ShmGeometry geo;
  geo.num_workers = 2;
  procfleet::ShmSegment seg(geo);
  procfleet::ShmHub hub(&seg, procfleet::ShmHubOptions{}, nullptr);
  const usize chunk = geo.max_records / 2;
  for (usize begin = 0; begin < corpus.size(); begin += chunk) {
    const usize end = std::min(corpus.size(), begin + chunk);
    for (usize i = begin; i < end; ++i) {
      if (corpus[i].size() > geo.max_input_size) continue;
      Input copy = corpus[i];
      f.shm_publish.push_back(
          time_ns([&] { (void)hub.publish(0, std::move(copy)); }));
    }
    std::vector<Input> got;
    const double ns = time_ns([&] { got = hub.fetch_new(1); });
    if (!got.empty()) f.shm_fetch.push_back(ns / got.size());
  }
}

void replay_dispatch(const Target& t, const CampaignConfig& cfg,
                     const std::vector<Input>& corpus,
                     const std::string& work_dir, ReplayFigures& f,
                     Outcome& outcome) {
  const bool flat = cfg.scheme == MapScheme::kFlat;
  switch (cfg.metric) {
    case MetricKind::kEdge:
      return flat ? replay_layers<FlatCoverageMap, EdgeMetric>(
                        t, cfg, corpus, work_dir, f, outcome)
                  : replay_layers<TwoLevelCoverageMap, EdgeMetric>(
                        t, cfg, corpus, work_dir, f, outcome);
    case MetricKind::kNGram:
      return flat ? replay_layers<FlatCoverageMap, NGramMetric<3>>(
                        t, cfg, corpus, work_dir, f, outcome)
                  : replay_layers<TwoLevelCoverageMap, NGramMetric<3>>(
                        t, cfg, corpus, work_dir, f, outcome);
    default:
      throw std::invalid_argument("perfbench: workload metric not replayable");
  }
}

// --- persist -----------------------------------------------------------------

struct PersistFigures {
  double save_ms = 0, load_ms = 0, bytes = 0;
};

// Re-saves the snapshot in `src_dir` into a fresh store and loads it back.
PersistFigures persist_layer(const std::string& src_dir,
                             const std::string& work_dir, Outcome& outcome) {
  PersistFigures pf;
  persist::CheckpointStore src(src_dir, persist::FaultCtx{}, false);
  const auto lo = src.load_latest();
  outcome.check(lo.snapshot.has_value(), "trace: no snapshot to re-save");
  if (!lo.snapshot.has_value()) return pf;
  const std::string dir = work_dir + "/resave";
  persist::CheckpointStore dst(dir, persist::FaultCtx{}, /*fresh=*/true);
  std::vector<double> save, load;
  for (int i = 0; i < 3; ++i) {
    std::string err;
    bool ok = false;
    save.push_back(1e-6 *
                   time_ns([&] { ok = dst.save(*lo.snapshot, 2, &err); }));
    outcome.check(ok, "trace: snapshot re-save: " + err);
    persist::CheckpointStore::LoadOutcome back;
    load.push_back(1e-6 * time_ns([&] { back = dst.load_latest(); }));
    outcome.check(back.snapshot.has_value() &&
                      back.snapshot->execs == lo.snapshot->execs,
                  "trace: re-saved snapshot does not load back");
  }
  const persist::PersistStats st = dst.stats();
  pf.save_ms = median(save);
  pf.load_ms = median(load);
  pf.bytes = st.checkpoints_written > 0
                 ? static_cast<double>(st.checkpoint_bytes) /
                       static_cast<double>(st.checkpoints_written)
                 : 0;
  fs::remove_all(dir);
  return pf;
}

// --- the traced run ----------------------------------------------------------

struct FleetFigures {
  std::vector<double> worker_min, worker_max, tail;
  u64 published = 0, fetched = 0, reader_timeouts = 0, restarts = 0;
  u64 checkpoints_written = 0;
};

void trace_workload(const WorkloadSpec& w, const RunContext& ctx,
                    MetricSet& out, Outcome& outcome,
                    const FleetFigures* fleet) {
  const Target t = build_target(w);
  const CampaignConfig base = instance_config(w, ctx.seed, 0);

  // Rounds of a plain, an exec-timestamped and a telemetry-attached
  // campaign, rotated so drift on the host hits each variant alike. Each
  // overhead is the median over rounds of the drop against the same
  // round's plain campaign.
  enum Variant { kPlain, kHooked, kSink, kVariants };
  std::vector<double> plain_eps, hook_drop, sink_drop;
  std::vector<double> intervals_us;
  Measured plain;
  Digest want;
  bool have_plain = false;
  const std::string plain_dir = ctx.work_dir + "/trace-plain";
  const u64 start = monotonic_ns();
  for (u32 round = 0;
       round < kMinRounds ||
       (round < kMaxRounds &&
        static_cast<double>(monotonic_ns() - start) * 1e-9 < ctx.seconds);
       ++round) {
    std::array<double, kVariants> eps{};
    for (u32 k = 0; k < kVariants; ++k) {
      const Variant v = static_cast<Variant>((k + round) % kVariants);
      CampaignConfig cfg = base;
      ExecClock clock(cfg.max_execs);
      telemetry::TelemetrySink sink(0);
      if (v == kHooked) cfg.exec_hook = &clock;
      if (v == kSink) cfg.telemetry = &sink;
      // The first campaign (plain, round 0) is kept for the replays.
      const bool keep = !have_plain;
      const std::string dir = keep ? plain_dir : ctx.work_dir + "/trace-run";
      Measured m = measure_campaign(w, t, cfg, dir, outcome);
      eps[v] = m.execs_per_s;
      if (v == kHooked) clock.append_intervals_us(intervals_us);
      const Digest d = digest_of(m.result);
      if (keep) {
        plain = std::move(m);
        want = d;
        have_plain = true;
        continue;
      }
      fs::remove_all(dir);
      outcome.check(d == want, "trace: variant digest differs: " +
                                   want.str() + " vs " + d.str());
    }
    plain_eps.push_back(eps[kPlain]);
    hook_drop.push_back(pct_drop(eps[kPlain], eps[kHooked]));
    sink_drop.push_back(pct_drop(eps[kPlain], eps[kSink]));
  }

  // Always-trace reference: same digest as dual mode (the mode_diff
  // contract). Non-durable workloads save one final snapshot here so the
  // persist layer has the workload's own state to re-save.
  const std::string ref_dir = ctx.work_dir + "/trace-ref";
  {
    CampaignConfig cfg = base;
    cfg.tracing = TracingMode::kAlways;
    std::unique_ptr<persist::CheckpointStore> ckpt;
    if (!w.durable) {
      ckpt = std::make_unique<persist::CheckpointStore>(
          ref_dir + "/ckpt", persist::FaultCtx{}, /*fresh=*/true);
      cfg.checkpoint = ckpt.get();
      cfg.checkpoint_interval = 0;  // only at clean completion
    }
    const Measured ref = measure_campaign(w, t, cfg, ref_dir, outcome);
    const Digest d = digest_of(ref.result);
    outcome.check(d == want, "trace: always-trace digest differs: " +
                                 want.str() + " vs " + d.str());
  }

  ReplayFigures f(plain.result.corpus.size());
  replay_dispatch(t, base, plain.result.corpus, ctx.work_dir, f, outcome);
  const PersistFigures pf = persist_layer(
      (w.durable ? plain_dir : ref_dir) + "/ckpt", ctx.work_dir, outcome);
  fs::remove_all(plain_dir);
  fs::remove_all(ref_dir);

  const CampaignResult& r = plain.result;
  const double execs = static_cast<double>(r.execs);
  const double outside_ns = plain.outside_seconds * 1e9;
  const double run_ns = f.run.mean();
  const double visit_ns = f.visit.mean();

  out.add("target.run_ns_p50", quantile(f.run.per_input(), 0.5), "ns");
  out.add("target.run_ns_p99", quantile(f.run.per_input(), 0.99), "ns");
  out.add("target.steps_per_run", f.steps_per_run, "steps");
  out.add("instrumentation.visit_ns", visit_ns - run_ns, "ns");
  out.add("core.update_ns", f.update.mean() - visit_ns, "ns");
  out.add("core.reset_ns", median(f.reset), "ns");
  out.add("core.classify_ns", median(f.classify), "ns");
  out.add("core.compare_ns", median(f.compare), "ns");
  out.add("core.classify_compare_ns", median(f.classify_compare), "ns");
  out.add("core.hash_ns", median(f.hash), "ns");
  out.add("core.used_key", f.used_key, "keys");

  out.add("fuzzer.traced_exec_ns", f.traced.mean(), "ns");
  out.add("fuzzer.untraced_exec_ns", f.untraced.mean(), "ns");
  out.add("fuzzer.hash_run_ns", f.hash_run.mean(), "ns");
  out.add("fuzzer.untraced_share",
          static_cast<double>(r.tracing_untraced_execs) / execs, "ratio");
  out.add("fuzzer.fire_precision",
          r.tracing_oracle_fires > 0
              ? static_cast<double>(r.interesting) /
                    static_cast<double>(r.tracing_oracle_fires)
              : 0.0,
          "ratio");
  out.add("fuzzer.reexec_time_share",
          static_cast<double>(r.tracing_reexec_ns) / outside_ns, "ratio");
  out.add("fuzzer.trim_exec_share", static_cast<double>(r.trim_execs) / execs,
          "ratio");
  out.add("fuzzer.interesting_per_kexec",
          static_cast<double>(r.interesting) * 1000.0 / execs, "1/kexec");
  static constexpr std::array<const char*, kNumMapOps> kOpNames = {
      "execution", "reset", "classify", "compare", "hash", "other"};
  double attributed = 0;
  for (usize op = 0; op < kNumMapOps; ++op) {
    const double ns =
        static_cast<double>(r.timing.ns(static_cast<MapOp>(op))) / execs;
    attributed += ns;
    out.add(std::string("fuzzer.op.") + kOpNames[op] + "_ns_per_exec", ns,
            "ns");
  }
  const double per_exec = outside_ns / execs;
  out.add("fuzzer.unattributed_ns_per_exec", per_exec - attributed, "ns");
  const auto op_ns = [&](MapOp op) {
    return static_cast<double>(r.timing.ns(op)) / execs;
  };
  out.add("fuzzer.op.execution_share_pct",
          op_ns(MapOp::kExecution) / per_exec * 100.0, "%");
  out.add("fuzzer.op.map_ops_share_pct",
          (op_ns(MapOp::kReset) + op_ns(MapOp::kClassify) +
           op_ns(MapOp::kCompare) + op_ns(MapOp::kHash)) /
              per_exec * 100.0,
          "%");
  out.add("fuzzer.exec_interval_p50_us", quantile(intervals_us, 0.5), "us");
  out.add("fuzzer.exec_interval_p99_us", quantile(intervals_us, 0.99), "us");
  out.add("fuzzer.crashes_found",
          static_cast<double>(r.crashes_crashwalk_unique), "crashes");
  out.add("fuzzer.havoc_ns", median(f.havoc), "ns");
  out.add("fuzzer.splice_ns", median(f.splice), "ns");
  out.add("fuzzer.queue_update_scores_ns", median(f.update_scores), "ns");
  out.add("fuzzer.queue_cull_ns", median(f.cull), "ns");

  const u64 ckpts = fleet ? fleet->checkpoints_written : r.checkpoints_written;
  out.add("persist.checkpoint_save_ms", pf.save_ms, "ms");
  out.add("persist.checkpoint_load_ms", pf.load_ms, "ms");
  out.add("persist.checkpoint_bytes", pf.bytes, "bytes");
  out.add("persist.checkpoints_written", static_cast<double>(ckpts), "count");
  // A fleet worker's failed saves stay inside its process.
  out.add("persist.checkpoint_failures",
          static_cast<double>(r.checkpoint_failures), "count");
  // Share of the campaign's wall time its checkpoint saves and corpus
  // appends take, from their per-call costs timed above.
  out.add("persist.time_share_pct",
          static_cast<double>(r.checkpoints_written) * pf.save_ms * 1e6 /
              outside_ns * 100.0,
          "%");

  const double add_us = median(f.add_entry_us);
  out.add("corpus.add_entry_us", add_us, "us");
  out.add("corpus.compact_ms", f.compact_ms, "ms");
  out.add("corpus.wal_bytes_per_entry", f.wal_bytes_per_entry, "bytes");
  out.add("corpus.dedup_ratio",
          w.durable ? static_cast<double>(r.corpus_dedup_hits) /
                          static_cast<double>(std::max<u64>(
                              1, r.corpus_appends + r.corpus_dedup_hits))
                    : f.replay_dedup_ratio,
          "ratio");
  out.add("corpus.pending_appends",
          static_cast<double>(plain.corpus_append_failures), "count");
  out.add("corpus.time_share_pct",
          static_cast<double>(r.corpus_appends) * add_us * 1e3 / outside_ns *
              100.0,
          "%");

  // A single-process workload is a one-worker fleet with no coordinator:
  // its worker rate is the campaign's, and its tail is the time outside
  // the campaign's own clock.
  const double solo_eps = median(plain_eps);
  out.add("procfleet.worker_execs_per_s_min",
          fleet ? median(fleet->worker_min) : solo_eps, "exec/s");
  out.add("procfleet.worker_execs_per_s_max",
          fleet ? median(fleet->worker_max) : solo_eps, "exec/s");
  out.add("procfleet.coordinator_tail_s",
          fleet ? median(fleet->tail)
                : plain.outside_seconds - r.wall_seconds,
          "s");
  out.add("procfleet.shm_publish_ns", median(f.shm_publish), "ns");
  out.add("procfleet.shm_fetch_ns", median(f.shm_fetch), "ns");
  out.add("procfleet.sync_published",
          static_cast<double>(fleet ? fleet->published : 0), "count");
  out.add("procfleet.sync_fetched",
          static_cast<double>(fleet ? fleet->fetched : 0), "count");
  out.add("procfleet.sync_reader_timeouts",
          static_cast<double>(fleet ? fleet->reader_timeouts : 0), "count");
  out.add("procfleet.restarts",
          static_cast<double>(fleet ? fleet->restarts : 0), "count");

  out.add("telemetry.sink_overhead_pct", median(sink_drop), "%");
  out.add("bench.trace_overhead_pct", median(hook_drop), "%");
}

FleetFigures trace_fleet(const WorkloadSpec& w, const RunContext& ctx,
                         Outcome& outcome) {
  FleetFigures ff;
  const Target t = build_target(w);
  for (u32 rep = 0; rep < 2; ++rep) {
    const std::string dir = ctx.work_dir + "/trace-fleet";
    const FleetRun run = run_fleet(w, t, ctx.seed, dir, outcome);
    fs::remove_all(dir);
    const procfleet::ProcFleetResult& r = run.result;
    if (!run.worker_execs_per_s.empty()) {
      ff.worker_min.push_back(*std::min_element(
          run.worker_execs_per_s.begin(), run.worker_execs_per_s.end()));
      ff.worker_max.push_back(*std::max_element(
          run.worker_execs_per_s.begin(), run.worker_execs_per_s.end()));
    }
    ff.tail.push_back(run.outside_seconds - run.slowest_worker_s);
    // Counts of the last fleet; restarts over both.
    ff.published = r.sync.total_published;
    ff.fetched = r.sync.fetched;
    ff.reader_timeouts = r.sync.reader_timeouts;
    ff.checkpoints_written = run.checkpoints;
    ff.restarts += r.total_restarts;
  }
  return ff;
}

}  // namespace

void run_traced(const WorkloadSpec& w, const RunContext& ctx, MetricSet& out,
                Outcome& outcome) {
  if (w.fleet()) {
    // Fleet-level figures from the fleet itself; every other layer from
    // one worker's campaign run solo (same config, no hub).
    const FleetFigures ff = trace_fleet(w, ctx, outcome);
    trace_workload(w, ctx, out, outcome, &ff);
  } else {
    trace_workload(w, ctx, out, outcome, nullptr);
  }
}

}  // namespace perfbench
