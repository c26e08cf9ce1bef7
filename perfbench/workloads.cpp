#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "corpus/store.h"
#include "fuzzer/procfleet/coordinator.h"
#include "hostspeed.h"
#include "persist/checkpoint.h"
#include "target/lafintel.h"
#include "target/suite.h"
#include "util/timing.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

double seconds_since(u64 start_ns) {
  return static_cast<double>(monotonic_ns() - start_ns) * 1e-9;
}

// Budgets shrink with the scale but stay large enough for every campaign
// to get past its seed phase.
u64 scaled(u64 budget, double scale) {
  return std::max<u64>(500, static_cast<u64>(static_cast<double>(budget) *
                                              scale));
}

// A run's exec/s and set-up times with the host speed probed before its
// first campaign (or fleet) and after each; reports their medians scaled to
// the run's host speed (hostspeed.h). That is the upper quartile of the
// probes, not their median: a probe that lands in a burst of the host's
// own background work (such as the write-back after a durable campaign)
// reads low for reasons that do not slow a whole campaign.
class ScaledTimings {
 public:
  // Probes the host now and returns its speed.
  double probe() {
    speed_.push_back(host_speed());
    return speed_.back();
  }
  void add(double execs_per_s, const std::vector<double>& setups) {
    eps_.push_back(execs_per_s);
    setup_.insert(setup_.end(), setups.begin(), setups.end());
  }
  void report(MetricSet& out) const {
    const double speed = quantile(speed_, 0.75);
    std::fprintf(stderr,
                 "unscaled medians: %.1f exec/s, setup %.5f s; host speed "
                 "%.3f (min %.3f, max %.3f) over %zu probes\n",
                 median(eps_), median(setup_), speed,
                 *std::min_element(speed_.begin(), speed_.end()),
                 *std::max_element(speed_.begin(), speed_.end()),
                 speed_.size());
    out.add("execs_per_s", median(eps_) / speed, "exec/s");
    out.add("setup_s", median(setup_) * speed, "s");
  }

 private:
  std::vector<double> eps_;
  std::vector<double> setup_;
  std::vector<double> speed_;
};

}  // namespace

std::vector<WorkloadSpec> all_workloads(double scale) {
  std::vector<WorkloadSpec> ws;

  // The paper's baseline: zlib on a two-level 64 kB map, edge metric,
  // campaign defaults (dual tracing, trimming on).
  {
    WorkloadSpec w;
    w.name = "bigmap-64k";
    w.benchmark = "zlib";
    w.config.scheme = MapScheme::kTwoLevel;
    w.config.map.map_size = 64u << 10;
    w.config.max_execs = scaled(25000, scale);
    w.instances = 6;
    ws.push_back(w);
  }
  // The AFL control arm at a large map: same target and seeds, flat 2 MB.
  {
    WorkloadSpec w;
    w.name = "afl-2m";
    w.benchmark = "zlib";
    w.config.scheme = MapScheme::kFlat;
    w.config.map.map_size = 2u << 20;
    w.config.max_execs = scaled(8000, scale);
    w.instances = 4;
    ws.push_back(w);
  }
  // Table III's collision-heavy regime with durable state: laf-intel +
  // 3-gram on a two-level 2 MB map, checkpoints at a fixed exec cadence and
  // every queued entry appended to a corpus store.
  {
    WorkloadSpec w;
    w.name = "comp-2m-durable";
    w.benchmark = "adce+comp";
    w.laf_intel = true;
    w.config.scheme = MapScheme::kTwoLevel;
    w.config.metric = MetricKind::kNGram;
    w.config.map.map_size = 2u << 20;
    w.config.max_execs = scaled(1500, scale);
    w.instances = 2;
    w.durable = true;
    w.checkpoint_interval = scaled(750, scale);
    ws.push_back(w);
  }
  // Process fleet: 3 workers + coordinator over the shm hub (Figure 9
  // shape), per-worker persistence.
  {
    WorkloadSpec w;
    w.name = "fleet-3w";
    w.benchmark = "proj4";
    w.config.scheme = MapScheme::kTwoLevel;
    w.config.map.map_size = 2u << 20;
    w.config.max_execs = scaled(10000, scale);
    w.config.sync_interval = 1024;
    w.workers = 3;
    w.checkpoint_interval = 4096;
    ws.push_back(w);
  }
  for (WorkloadSpec& w : ws) w.config.deterministic_timing = true;
  return ws;
}

Target build_target(const WorkloadSpec& w) {
  const u64 start = monotonic_ns();
  const BenchmarkInfo* info = find_benchmark(w.benchmark);
  if (info == nullptr) {
    throw std::runtime_error("unknown benchmark profile " + w.benchmark);
  }
  GeneratedTarget gen = build_benchmark(*info);
  Target t;
  t.seeds = benchmark_seeds(gen, *info);
  t.program = w.laf_intel ? apply_laf_intel(gen.program)
                          : std::move(gen.program);
  t.build_seconds = seconds_since(start);
  return t;
}

std::string Digest::str() const {
  return "execs=" + std::to_string(execs) +
         " interesting=" + std::to_string(interesting) +
         " covered=" + std::to_string(covered_positions) +
         " corpus=" + std::to_string(corpus_size) +
         " stacks=" + std::to_string(stack_hashes.size()) +
         " bugs=" + std::to_string(bug_ids.size());
}

Digest digest_of(const CampaignResult& r) {
  Digest d;
  d.execs = r.execs;
  d.interesting = r.interesting;
  d.covered_positions = r.covered_positions;
  d.corpus_size = r.corpus_size;
  d.stack_hashes = r.found_stack_hashes;
  d.bug_ids = r.found_bug_ids;
  std::sort(d.stack_hashes.begin(), d.stack_hashes.end());
  std::sort(d.bug_ids.begin(), d.bug_ids.end());
  return d;
}

CampaignConfig instance_config(const WorkloadSpec& w, u64 seed,
                               u32 instance) {
  CampaignConfig c = w.config;
  c.seed = seed + static_cast<u64>(instance) * kInstanceSeedStride;
  c.keep_corpus = true;
  return c;
}

double peak_rss_mb(bool children) {
  if (children) {
    struct rusage ru {};
    ::getrusage(RUSAGE_CHILDREN, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB
  }
  // VmHWM rather than RUSAGE_SELF: ru_maxrss survives execve, so it would
  // include whatever process image launched the binary.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

Measured measure_campaign(const WorkloadSpec& w, const Target& t,
                          CampaignConfig cfg, const std::string& dir,
                          Outcome& outcome) {
  std::unique_ptr<persist::CheckpointStore> ckpt;
  std::unique_ptr<corpus::CorpusStore> store;
  if (w.durable) {
    fs::create_directories(dir);
    ckpt = std::make_unique<persist::CheckpointStore>(
        dir + "/ckpt", persist::FaultCtx{}, /*fresh=*/true);
    store = std::make_unique<corpus::CorpusStore>(dir + "/corpus");
    const corpus::OpenReport open = store->open(/*fresh=*/true);
    outcome.check(open.ok, "corpus store open: " + open.error);
    cfg.checkpoint = ckpt.get();
    cfg.checkpoint_interval = w.checkpoint_interval;
    cfg.corpus = store.get();
  }

  Measured m;
  const u64 start = monotonic_ns();
  m.result = run_campaign(t.program, t.seeds, cfg);
  m.outside_seconds = seconds_since(start);
  const CampaignResult& r = m.result;
  // Allocation before the campaign clock starts and teardown after it
  // stops are the part of the outside wall the result does not cover.
  const double alloc = std::max(0.0, m.outside_seconds - r.wall_seconds);
  m.setup_seconds = t.build_seconds + alloc + r.seed_seconds;
  const double steady = m.outside_seconds - r.seed_seconds;
  m.execs_per_s =
      steady > 0 ? static_cast<double>(r.execs - r.seed_execs) / steady : 0;

  outcome.check(r.execs == cfg.max_execs,
                "execs " + std::to_string(r.execs) + " != budget " +
                    std::to_string(cfg.max_execs));
  if (cfg.checkpoint != nullptr) {
    outcome.ops(r.checkpoints_written + r.checkpoint_failures,
                r.checkpoint_failures);
  }
  if (store != nullptr) {
    const corpus::CorpusStats cs = store->stats();
    outcome.ops(cs.wal_appends + cs.wal_append_failures,
                cs.wal_append_failures);
    m.corpus_append_failures = cs.wal_append_failures;
    std::string err;
    outcome.check(store->flush_pending(&err), "corpus flush: " + err);
    store.reset();
    corpus::CorpusStore probe(dir + "/corpus");
    const corpus::FsckReport fsck = probe.fsck();
    outcome.check(fsck.ok && fsck.entries == r.corpus_appends,
                  "corpus fsck: ok=" + std::to_string(fsck.ok) +
                      " entries=" + std::to_string(fsck.entries) +
                      " appends=" + std::to_string(r.corpus_appends));
  }
  if (ckpt != nullptr) {
    // The final snapshot must load and describe exactly this campaign.
    persist::CheckpointStore reopened(dir + "/ckpt", persist::FaultCtx{},
                                      /*fresh=*/false);
    const auto lo = reopened.load_latest();
    const bool identity =
        lo.snapshot.has_value() &&
        lo.snapshot->scheme == static_cast<u32>(cfg.scheme) &&
        lo.snapshot->metric == static_cast<u32>(cfg.metric) &&
        lo.snapshot->seed == cfg.seed &&
        lo.snapshot->map_size == cfg.map.map_size &&
        lo.snapshot->execs == r.execs &&
        lo.snapshot->entries.size() == r.corpus_size;
    outcome.check(identity, "final checkpoint does not load as this run");
  }
  return m;
}

namespace {

void single_end_to_end(const WorkloadSpec& w, const RunContext& ctx,
                       MetricSet& out, Outcome& outcome) {
  ScaledTimings timings;
  std::vector<Digest> first(w.instances);
  std::vector<Input> corpus;  // union of the instances' final queues
  Target target;
  const u64 start = monotonic_ns();
  timings.probe();
  // Each instance once (the finds), then repeats until the time is up; a
  // repeat must reproduce its instance's digest exactly. At least one
  // repeat always runs.
  for (u32 rep = 0;
       rep <= w.instances || seconds_since(start) < ctx.seconds; ++rep) {
    const u32 inst = rep % w.instances;
    target = build_target(w);
    const std::string dir = ctx.work_dir + "/rep" + std::to_string(rep);
    Measured m = measure_campaign(
        w, target, instance_config(w, ctx.seed, inst), dir, outcome);
    fs::remove_all(dir);
    const double speed = timings.probe();
    timings.add(m.execs_per_s, {m.setup_seconds});
    const Digest d = digest_of(m.result);
    std::fprintf(stderr,
                 "rep %u instance %u: %.1f exec/s, setup %.4f s, host speed "
                 "%.3f, %s\n",
                 rep, inst, m.execs_per_s, m.setup_seconds, speed,
                 d.str().c_str());
    if (rep < w.instances) {
      first[inst] = d;
      corpus.insert(corpus.end(), m.result.corpus.begin(),
                    m.result.corpus.end());
    } else {
      outcome.check(d == first[inst],
                    "instance " + std::to_string(inst) +
                        " not reproducible: " + first[inst].str() + " vs " +
                        d.str());
    }
  }
  const u64 edges =
      measure_corpus_edges(target.program, corpus, w.config.step_budget);
  timings.report(out);
  out.add("edges_found", static_cast<double>(edges), "edges");
  out.add("peak_rss_mb", peak_rss_mb(false), "MB");
}

}  // namespace

// --- process fleet -----------------------------------------------------------

namespace {

// Watches the coordinator's per-worker exec counters from outside the
// fleet: when each worker has finished its seed phase ("started") and when
// it has delivered its whole budget.
class FleetWatch {
 public:
  FleetWatch(const telemetry::FleetTelemetry& tel, u32 workers,
             u64 seed_execs, u64 goal)
      : tel_(tel),
        seed_execs_(seed_execs),
        goal_(goal),
        started_ns_(workers, 0),
        done_ns_(workers, 0),
        start_ns_(monotonic_ns()),
        thread_([this] { poll(); }) {}
  ~FleetWatch() { stop(); }
  FleetWatch(const FleetWatch&) = delete;
  FleetWatch& operator=(const FleetWatch&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  u64 start_ns() const noexcept { return start_ns_; }
  // Seconds from the watch start until every worker had finished its seed
  // phase; 0 when some worker was never seen doing so.
  double all_started_s() const { return latest(started_ns_); }
  // Per-worker seconds from the watch start to budget delivered.
  std::vector<double> done_s() const {
    std::vector<double> v;
    for (u64 t : done_ns_) {
      if (t != 0) v.push_back(static_cast<double>(t - start_ns_) * 1e-9);
    }
    return v;
  }

 private:
  double latest(const std::vector<u64>& ts) const {
    u64 last = 0;
    for (u64 t : ts) {
      if (t == 0) return 0.0;
      last = std::max(last, t);
    }
    return static_cast<double>(last - start_ns_) * 1e-9;
  }
  void poll() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const u64 now = monotonic_ns();
      for (u32 i = 0; i < started_ns_.size(); ++i) {
        const u64 execs = tel_.instance(i).execs.get();
        if (started_ns_[i] == 0 && execs >= seed_execs_) started_ns_[i] = now;
        if (done_ns_[i] == 0 && execs >= goal_) done_ns_[i] = now;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  const telemetry::FleetTelemetry& tel_;
  const u64 seed_execs_;
  const u64 goal_;
  std::vector<u64> started_ns_;
  std::vector<u64> done_ns_;
  const u64 start_ns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it reads
};

}  // namespace

FleetRun run_fleet(const WorkloadSpec& w, const Target& t, u64 seed,
                   const std::string& dir, Outcome& outcome) {
  fs::remove_all(dir);
  procfleet::ProcFleetConfig fc;
  fc.num_workers = w.workers;
  fc.base = w.config;
  fc.base.seed = seed;
  fc.instance_seed_stride = kInstanceSeedStride;
  fc.poll_ms = 2;
  // Never hang-kill a healthy worker on a loaded host; a kill here would
  // be a benchmark failure, not a measurement.
  fc.stall_deadline_ms = 10000;
  fc.checkpoint_interval = w.checkpoint_interval;
  fc.persist_dir = dir;
  telemetry::FleetTelemetry tel(w.workers);
  fc.telemetry = &tel;

  FleetRun run;
  const u64 goal = w.config.max_execs;
  FleetWatch watch(tel, w.workers, t.seeds.size(), goal);
  run.result = procfleet::run_process_fleet(t.program, t.seeds, fc);
  run.outside_seconds = seconds_since(watch.start_ns());
  watch.stop();

  const procfleet::ProcFleetResult& r = run.result;
  const double started = watch.all_started_s();
  run.setup_seconds = t.build_seconds + started;
  const u64 seed_execs = static_cast<u64>(w.workers) * t.seeds.size();
  const double steady = run.outside_seconds - started;
  run.execs_per_s =
      steady > 0 && r.total_execs > seed_execs
          ? static_cast<double>(r.total_execs - seed_execs) / steady
          : 0.0;
  for (double done : watch.done_s()) {
    run.worker_execs_per_s.push_back(static_cast<double>(goal) / done);
    run.slowest_worker_s = std::max(run.slowest_worker_s, done);
  }

  u64 launches = 0;
  u64 abnormal = 0;
  for (const procfleet::WorkerHealth& h : r.workers) {
    launches += h.attempts;
    abnormal += h.restarts + h.hang_kills + h.crash_signals + h.oom_kills +
                h.shm_failures + h.error_exits + h.kills;
  }
  outcome.ops(launches, abnormal);
  outcome.check(r.all_completed(), "fleet: not every worker completed");
  outcome.check(r.total_execs == goal * w.workers,
                "fleet: total execs " + std::to_string(r.total_execs) +
                    " != " + std::to_string(goal * w.workers));
  outcome.check(r.total_restarts == 0 && abnormal == 0,
                "fleet: " + std::to_string(abnormal) + " abnormal exits");
  outcome.check(started > 0, "fleet: a worker never finished its seeds");

  // What the fleet found: the union of every worker's final snapshot.
  std::vector<Input> corpus;
  for (u32 i = 0; i < w.workers; ++i) {
    persist::CheckpointStore store(dir + "/instance-" + std::to_string(i),
                                   persist::FaultCtx{}, /*fresh=*/false);
    auto lo = store.load_latest();
    outcome.check(lo.snapshot.has_value(),
                  "fleet: worker " + std::to_string(i) + " left no snapshot");
    // Workers save from their own processes, so the coordinator's store
    // stats never see those saves; the newest sequence number counts them.
    run.checkpoints += store.newest_seq_on_disk();
    if (!lo.snapshot.has_value()) continue;
    for (persist::QueueEntrySnap& e : lo.snapshot->entries) {
      corpus.push_back(std::move(e.data));
    }
  }
  run.corpus = std::move(corpus);
  return run;
}

namespace {

// Seed-phase-only fleets started before each measured fleet.
constexpr u32 kStartsPerFleet = 2;

void fleet_end_to_end(const WorkloadSpec& w, const RunContext& ctx,
                      MetricSet& out, Outcome& outcome) {
  ScaledTimings timings;
  std::vector<double> edges;
  // Starting three workers at once is the fleet's noisiest phase, so each
  // measured fleet is preceded by fleets that stop after their seed phase;
  // setup_s is the median over every start.
  WorkloadSpec starter = w;
  const u64 start = monotonic_ns();
  timings.probe();
  for (u32 rep = 0; rep < 2 || seconds_since(start) < ctx.seconds; ++rep) {
    const Target target = build_target(w);
    const std::string dir = ctx.work_dir + "/fleet" + std::to_string(rep);
    starter.config.max_execs = target.seeds.size();
    std::vector<double> setups;
    for (u32 i = 0; i < kStartsPerFleet; ++i) {
      setups.push_back(
          run_fleet(starter, target, ctx.seed, dir, outcome).setup_seconds);
      fs::remove_all(dir);
    }
    FleetRun run = run_fleet(w, target, ctx.seed, dir, outcome);
    fs::remove_all(dir);
    setups.push_back(run.setup_seconds);
    const double speed = timings.probe();
    timings.add(run.execs_per_s, setups);
    std::fprintf(stderr,
                 "fleet rep %u: %.1f exec/s, setup %.4f s, host speed %.3f, "
                 "%llu execs\n",
                 rep, run.execs_per_s, run.setup_seconds, speed,
                 static_cast<unsigned long long>(run.result.total_execs));
    edges.push_back(static_cast<double>(measure_corpus_edges(
        target.program, run.corpus, w.config.step_budget)));
  }
  timings.report(out);
  out.add("edges_found", median(edges), "edges");
  out.add("peak_rss_mb", peak_rss_mb(true), "MB");
}

}  // namespace

void run_end_to_end(const WorkloadSpec& w, const RunContext& ctx,
                    MetricSet& out, Outcome& outcome) {
  if (w.fleet()) {
    fleet_end_to_end(w, ctx, out, outcome);
  } else {
    single_end_to_end(w, ctx, out, outcome);
  }
}

}  // namespace perfbench
