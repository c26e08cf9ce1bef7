// corpus_drill: driver for the corpus chaos drill
// (scripts/corpus_chaos_drill.sh). Three modes over one fixed fleet
// configuration (4 instances, planted-bug target, deterministic timing,
// cross-instance sync disabled so every exec stream is a pure function of
// its seed), all sharing one WAL-backed CorpusStore:
//
//   corpus_drill baseline <dir>   fault-free persisted run; the reference
//                                 corpus and crash union
//   corpus_drill run <dir>        fresh persisted run under a fault storm
//                                 (instance kills after the first
//                                 checkpoints, checkpoint I/O failures),
//                                 ending in SIGKILL raised from inside a
//                                 compaction — after the new pack is
//                                 committed but before the WAL reset, the
//                                 nastiest crash point the store has
//   corpus_drill resume <dir>     relaunch after the kill; replays fleet
//                                 journal + corpus WAL and finishes the
//                                 budget
//
// baseline and resume end with the same offline maintenance pass: flush
// pending appends, trim with every snapshot-referenced hash pinned (so
// statecheck --corpus stays clean), compact, and export the canonical
// pack to <dir>/corpus.canonical. The drill passes when the resumed run's
// canonical pack is byte-identical to the baseline's — the corpus store's
// whole point: recovered state is not merely similar, it is the same
// bytes.
//
// Sync stays off because imported entries would splice the instances'
// exec streams together at wall-clock-dependent points; the find-union
// would still converge, but the corpus would not be run-to-run
// byte-stable, and byte equality is exactly what this drill checks.
#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_set>

#include "corpus/store.h"
#include "fuzzer/fleet.h"
#include "persist/io.h"
#include "persist/snapshot.h"
#include "target/generator.h"
#include "util/fault.h"

using namespace bigmap;

namespace {

GeneratedTarget make_target() {
  GeneratorParams gp;
  gp.seed = 33;
  gp.live_blocks = 200;
  gp.num_bugs = 3;
  gp.bug_min_depth = 1;
  gp.bug_max_depth = 1;
  return generate_target(gp);
}

FleetConfig make_config() {
  FleetConfig sc;
  sc.num_workers = 4;
  sc.base.scheme = MapScheme::kTwoLevel;
  sc.base.map.map_size = 1u << 16;
  sc.base.map.huge_pages = false;
  sc.base.max_execs = 10000;
  sc.base.seed = 501;
  // Never reached within the budget: keeps each instance's exec stream
  // independent and deterministic (see file comment).
  sc.base.sync_interval = 1u << 30;
  sc.base.deterministic_timing = true;
  sc.poll_ms = 2;
  sc.stall_deadline_ms = 2000;
  sc.max_restarts_per_worker = 3;
  sc.backoff_initial_ms = 5;
  sc.backoff_cap_ms = 50;
  sc.sync_max_records = 1u << 14;
  sc.sync_max_input_size = 1u << 16;
  sc.checkpoint_interval = 512;
  return sc;
}

// The storm deliberately stays inside the class of faults that preserve
// each instance's exec stream: instance kills land after the first
// checkpoint boundary (warm restarts replay the identical stream), and
// checkpoint I/O failures are non-fatal and early (the final retained
// snapshots — the trim pin set — are written long after). Instance 0 gets
// no I/O faults because the fleet manifest/journal shares its fault key.
FaultPlan make_storm_plan() {
  FaultPlan plan;
  plan.triggers.push_back({FaultSite::kInstanceKill, 1, 800});
  plan.triggers.push_back({FaultSite::kInstanceKill, 3, 1200});
  plan.triggers.push_back({FaultSite::kRenameFail, 2, 1});
  plan.triggers.push_back({FaultSite::kNoSpace, 2, 3});
  plan.triggers.push_back({FaultSite::kShortWrite, 2, 5});
  return plan;
}

// Every content hash referenced by any snapshot under `fleet_dir`. These
// are the entries live queues would resolve on a future resume, so the
// offline trim must never drop them (statecheck --corpus treats a dangling
// snapshot ref as data loss).
std::unordered_set<u64> snapshot_pinned(const std::string& fleet_dir) {
  namespace fs = std::filesystem;
  std::unordered_set<u64> pinned;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(
           fleet_dir, fs::directory_options::skip_permission_denied, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec || !it->is_regular_file(ec)) continue;
    const std::string name = it->path().filename().string();
    if (name.rfind("snap-", 0) != 0 || name.size() < 9 ||
        name.compare(name.size() - 4, 4, ".bms") != 0) {
      continue;
    }
    std::vector<u8> bytes;
    std::string err;
    if (!persist::read_file(it->path().string(), &bytes, persist::FaultCtx{},
                            &err)) {
      continue;
    }
    persist::DecodeResult dec = persist::decode_snapshot(bytes);
    if (dec.status != persist::LoadStatus::kOk) continue;
    for (const persist::QueueEntrySnap& e : dec.snapshot->entries) {
      if (e.in_store) pinned.insert(e.content_hash);
    }
  }
  return pinned;
}

// Offline maintenance + canonical export; the printed keys are what the
// drill script diffs between baseline and resume.
int finalize_and_print(corpus::CorpusStore& store, const std::string& dir,
                       const FleetResult& r) {
  std::string err;
  store.flush_pending(&err);
  const corpus::TrimReport tr = store.trim(snapshot_pinned(dir));
  if (!store.compact(&err)) {
    std::fprintf(stderr, "compact failed: %s\n", err.c_str());
    return 1;
  }
  if (!store.export_canonical(dir + "/corpus.canonical", &err)) {
    std::fprintf(stderr, "canonical export failed: %s\n", err.c_str());
    return 1;
  }

  std::vector<u32> bugs = r.found_bug_ids;
  std::sort(bugs.begin(), bugs.end());
  std::vector<u64> hashes = r.found_stack_hashes;
  std::sort(hashes.begin(), hashes.end());
  std::printf("resumed: %d\n", r.resumed ? 1 : 0);
  std::printf("bug_ids:");
  for (u32 b : bugs) std::printf(" %u", b);
  std::printf("\nstack_hashes:");
  for (u64 h : hashes) std::printf(" %llx", static_cast<unsigned long long>(h));
  std::printf("\ntotal_execs: %llu\n",
              static_cast<unsigned long long>(r.total_execs));
  std::printf("all_completed: %d\n", r.all_completed() ? 1 : 0);
  std::printf("corpus_entries: %llu\n",
              static_cast<unsigned long long>(store.size()));
  std::printf("corpus_crash_rows: %llu\n",
              static_cast<unsigned long long>(store.crash_row_count()));
  std::printf("corpus_trim: scanned=%llu kept=%llu dropped=%llu rare=%llu\n",
              static_cast<unsigned long long>(tr.scanned),
              static_cast<unsigned long long>(tr.kept),
              static_cast<unsigned long long>(tr.dropped),
              static_cast<unsigned long long>(tr.rare_positions));
  std::printf("corpus_digest: %llx\n",
              static_cast<unsigned long long>(store.corpus_digest()));
  std::fflush(stdout);
  return r.all_completed() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const std::string dir = argc > 2 ? argv[2] : "";
  if ((mode != "baseline" && mode != "run" && mode != "resume") ||
      dir.empty()) {
    std::fprintf(stderr,
                 "usage: corpus_drill baseline <fleet-dir>\n"
                 "       corpus_drill run <fleet-dir>\n"
                 "       corpus_drill resume <fleet-dir>\n");
    return 2;
  }

  auto target = make_target();
  auto seeds = make_seed_corpus(target, 4, 1);
  FleetConfig sc = make_config();
  // The fleet store wipes its directory on a fresh start, so the corpus
  // store lives beside it, not inside it.
  sc.persist_dir = dir + "/fleet";
  sc.resume = mode == "resume";

  corpus::CorpusStore store(dir + "/corpus");
  const corpus::OpenReport orep = store.open(/*fresh=*/mode != "resume");
  if (!orep.ok) {
    std::fprintf(stderr, "store open failed: %s\n", orep.error.c_str());
    return 1;
  }
  sc.base.corpus = &store;
  sc.base.corpus_compact_interval = 1500;

  FaultInjector storm(4242, make_storm_plan());
  std::atomic<u32> renames{0};
  if (mode == "run") {
    sc.fault = &storm;
    // Die inside compaction #6 (mid-campaign for every instance), after
    // the pack rename committed but before the WAL reset — recovery must
    // replay the stale WAL idempotently over the fresh pack. Diagnostics
    // go out first: the script asserts the storm actually engaged.
    store.set_compact_hook([&](corpus::CompactPhase phase) {
      if (phase == corpus::CompactPhase::kAfterPackRename &&
          ++renames == 6) {
        // No store calls here: the compacting thread holds the store lock.
        const FaultStats fstats = storm.stats();
        std::fprintf(
            stderr,
            "compact-kill: renames=%u storm kills=%llu io_faults=%llu\n",
            renames.load(),
            static_cast<unsigned long long>(fstats.injected[static_cast<usize>(
                FaultSite::kInstanceKill)]),
            static_cast<unsigned long long>(
                fstats.injected[static_cast<usize>(FaultSite::kRenameFail)] +
                fstats.injected[static_cast<usize>(FaultSite::kNoSpace)] +
                fstats.injected[static_cast<usize>(FaultSite::kShortWrite)]));
        std::fflush(stderr);
        raise(SIGKILL);
      }
      return true;
    });
    std::printf("running: pid %d dir %s\n", static_cast<int>(getpid()),
                dir.c_str());
    std::fflush(stdout);
  }

  FleetResult r = run_thread_fleet(target.program, seeds, sc);
  if (mode == "run") {
    // The compact hook should have killed us long before the budget ran
    // out; reaching here means the chaos never happened.
    std::fprintf(stderr, "run mode completed without the compact-kill\n");
    return 1;
  }
  return finalize_and_print(store, dir, r);
}
