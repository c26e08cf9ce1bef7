// The benchmark's workloads and the runs that measure them.
//
// Every workload is a fixed exec budget under deterministic timing, so a
// given seed always does identical work. A single-process workload runs
// `instances` independent campaigns (instance i gets seed + i * stride);
// their union is what the budget "finds". The fleet workload runs
// run_process_fleet with the seed as its base seed.
#pragma once

#include <string>
#include <vector>

#include "fuzzer/campaign.h"
#include "fuzzer/procfleet/coordinator.h"
#include "report.h"
#include "target/program.h"

namespace perfbench {

using namespace bigmap;

// Seed distance between the instances of one run, so runs with adjacent
// --seed values share no instance.
inline constexpr u64 kInstanceSeedStride = 1u << 16;

struct WorkloadSpec {
  std::string name;
  std::string benchmark;  // Table II / composition suite profile
  bool laf_intel = false;
  CampaignConfig config;  // scheme, metric, map, budget (max_execs)
  u32 instances = 1;      // single-process: campaigns per run
  // Durable single-process workloads append to a CorpusStore and commit a
  // CheckpointStore snapshot every checkpoint_interval execs; fleet
  // workers always checkpoint at that interval.
  bool durable = false;
  u64 checkpoint_interval = 0;
  u32 workers = 0;  // fleet worker processes; 0 = single-process
  bool fleet() const noexcept { return workers > 0; }
};

// All workloads, budgets scaled by `budget_scale` (1.0 = the defined
// benchmark; the smoke test shrinks them).
std::vector<WorkloadSpec> all_workloads(double budget_scale);

// Built target, seed corpus, and how long building them took.
struct Target {
  Program program;
  std::vector<Input> seeds;
  double build_seconds = 0.0;
};
Target build_target(const WorkloadSpec& w);

// What must be identical between two campaigns with the same seed.
struct Digest {
  u64 execs = 0;
  u64 interesting = 0;
  u64 covered_positions = 0;
  u64 corpus_size = 0;
  std::vector<u64> stack_hashes;  // sorted
  std::vector<u32> bug_ids;       // sorted
  bool operator==(const Digest&) const = default;
  std::string str() const;
};
Digest digest_of(const CampaignResult& r);

// Options shared by every run of one process.
struct RunContext {
  u64 seed = 1;
  double seconds = 10.0;
  std::string work_dir;  // stores and snapshots; removed at exit
};

// Untraced measurement: end-to-end metrics.
void run_end_to_end(const WorkloadSpec& w, const RunContext& ctx,
                    MetricSet& out, Outcome& outcome);

// Traced measurement: per-layer metrics (layers.cpp).
void run_traced(const WorkloadSpec& w, const RunContext& ctx, MetricSet& out,
                Outcome& outcome);

// Instance i's campaign config for seed `seed`.
CampaignConfig instance_config(const WorkloadSpec& w, u64 seed, u32 instance);

// One campaign measured from outside run_campaign.
struct Measured {
  CampaignResult result;
  double outside_seconds = 0.0;  // wall time around run_campaign
  // Target build + map allocation/teardown + seed dry run.
  double setup_seconds = 0.0;
  // Execs after the seed phase / wall time after the seed phase.
  double execs_per_s = 0.0;
  u64 corpus_append_failures = 0;  // durable workloads: WAL appends lost
};

// Runs one campaign of `cfg`, attaching fresh stores under `dir` when the
// workload is durable, and checks its budget (and stores) into `outcome`.
Measured measure_campaign(const WorkloadSpec& w, const Target& t,
                          CampaignConfig cfg, const std::string& dir,
                          Outcome& outcome);

// One process fleet measured from outside run_process_fleet.
struct FleetRun {
  procfleet::ProcFleetResult result;
  double outside_seconds = 0.0;
  // Target build + time until every worker had finished its seed phase.
  double setup_seconds = 0.0;
  double execs_per_s = 0.0;  // aggregate, after setup
  std::vector<double> worker_execs_per_s;
  double slowest_worker_s = 0.0;  // start to the last worker's budget
  std::vector<Input> corpus;      // union of the workers' final queues
  u64 checkpoints = 0;            // snapshots the workers committed
};

// Runs the fleet workload with base seed `seed`, persisting under `dir`,
// and checks it into `outcome`.
FleetRun run_fleet(const WorkloadSpec& w, const Target& t, u64 seed,
                   const std::string& dir, Outcome& outcome);

// Peak resident set of this process (children = false) or of its largest
// waited-for child (children = true), in MB.
double peak_rss_mb(bool children);

}  // namespace perfbench
