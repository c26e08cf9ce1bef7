// Deterministic fault injection for robustness testing (supervision layer).
//
// Long parallel campaigns die in boring, hard-to-reproduce ways: an exec
// fails, a sync publish is lost, an instance wedges, an allocation fails
// under memory pressure. FaultInjector makes every one of those failure
// modes a first-class, *reproducible* event: all decisions flow from a
// 64-bit seed plus per-(instance, site) occurrence counters, so a fault
// schedule replays identically regardless of thread interleaving — each
// instance observes its own deterministic sequence.
//
// Two trigger mechanisms compose:
//  - explicit triggers: "the nth occurrence of site S on instance I faults"
//    (0-based, cumulative across restarts — a kill trigger therefore fires
//    exactly once, which is what supervisor recovery tests want);
//  - seeded rates: every occurrence faults with probability per_million /
//    1e6, decided by hashing (seed, site, instance, occurrence index).
//
// Deep paths that cannot be plumbed explicitly (PageBuffer in util/alloc)
// consult a thread-local binding installed by the supervisor around each
// campaign attempt.
#pragma once

#include <array>
#include <cstring>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "telemetry/registry.h"
#include "util/types.h"

namespace bigmap {

enum class FaultSite : u8 {
  kExecAbort = 0,   // one execution fails; the campaign survives
  kPublishDrop,     // a SyncHub publish is silently lost
  kTransientHang,   // the instance makes no progress for hang_ms
  kAllocFail,       // a PageBuffer allocation throws std::bad_alloc
  kInstanceKill,    // the campaign dies mid-run (partial result preserved)
  // Persistence I/O sites (consulted by persist/io): each models one way a
  // checkpoint or journal write/read goes wrong on a real filesystem.
  kShortWrite,      // only a prefix of the bytes reaches disk (torn tail)
  kCorruptRead,     // a read returns bit-flipped data (media corruption)
  kRenameFail,      // the atomic temp->final rename fails (commit lost)
  kNoSpace,         // the write fails up front with ENOSPC
  // Process-level chaos sites (consulted by procfleet workers): each models
  // one way a whole worker process dies or degrades under a real fleet.
  kProcKill,          // the worker SIGKILLs itself (wild write / OOM killer);
                      // a federation leader counts it per applied oracle
                      // delta on its gateway instance (host death)
  kProcStall,         // the worker SIGSTOPs itself (scheduler wedge / swap)
  kProcExitMidPublish,  // the worker dies inside a shm publish (torn record)
  kMmapFail,          // attaching the shared-memory segment fails
  // Network chaos sites (consulted by netfleet's PeerLink): each models one
  // way a socket between federated coordinators fails *partially* — the
  // first component in the system that can degrade rather than die.
  kNetDrop,        // one outgoing frame vanishes (lossy path / full queue)
  kNetDelay,       // one outgoing frame is delayed (congestion / bufferbloat)
  kNetShortWrite,  // the connection tears mid-frame (peer sees a torn record)
  kNetConnReset,   // the connection is reset abruptly (RST / peer crash)
  kNetPartition,   // the link is cut for a while (switch died / net split)
};
inline constexpr usize kNumFaultSites = 18;

const char* fault_site_name(FaultSite site) noexcept;

// Fires on the `nth` (0-based) occurrence of `site` on `instance`.
// Occurrence counters are cumulative across campaign restarts.
struct FaultTrigger {
  FaultSite site{};
  u32 instance = 0;
  u64 nth = 0;
};

// Fires each occurrence of `site` with probability per_million / 1e6,
// decided deterministically from the injector seed. `instance` filters to
// one instance; kAllInstances applies the rate everywhere.
struct FaultRate {
  static constexpr u32 kAllInstances = 0xFFFFFFFFu;
  FaultSite site{};
  u32 per_million = 0;
  u32 instance = kAllInstances;
};

struct FaultPlan {
  std::vector<FaultTrigger> triggers;
  std::vector<FaultRate> rates;
  // Duration of injected kTransientHang stalls. The hang polls the
  // campaign's stop flag, so a watchdog can always cut it short.
  u32 hang_ms = 50;
};

struct FaultStats {
  std::array<u64, kNumFaultSites> checked{};   // fire() calls per site
  std::array<u64, kNumFaultSites> injected{};  // faults delivered per site
  u64 checked_total() const noexcept;
  u64 injected_total() const noexcept;
};

// Thrown by the campaign when a kInstanceKill fault fires. Deliberately not
// derived from std::exception so generic catch(std::exception&) handlers in
// library code cannot swallow it; the campaign driver catches it by type,
// finalizes the partial result, and marks it fault_aborted.
struct InjectedInstanceKill {};

class FaultInjector {
 public:
  FaultInjector(u64 seed, FaultPlan plan);

  // True when the current occurrence of `site` on `instance` must fault.
  // Thread-safe; advances the (instance, site) occurrence counter.
  bool fire(FaultSite site, u32 instance);

  u32 hang_ms() const noexcept { return plan_.hang_ms; }

  FaultStats stats() const;
  // Faults delivered to one instance, across all sites.
  u64 injected_for(u32 instance) const;

  // Current occurrence count of (site, instance) — how many fire() calls
  // that pair has seen so far.
  u64 occurrences(FaultSite site, u32 instance) const;

  // Pre-advances the (site, instance) occurrence counter to `n` without
  // evaluating triggers or rates (no faults are delivered; nothing is
  // counted as checked). A procfleet worker rebuilds its injector in a
  // fresh process each attempt and advances the chaos-site counters to the
  // values its previous incarnations published in shared memory, so "the
  // nth occurrence faults" stays cumulative across process restarts exactly
  // like it is across thread restarts. Counters never move backwards.
  void advance(FaultSite site, u32 instance, u64 n);

  // Mirrors per-site occurrence counts into `reg` as
  // "fault.<site>.checked" / "fault.<site>.injected" counters, so
  // fault-injection runs are observable in the same scrape as the rest of
  // the fleet telemetry (the supervisor wires this automatically when both
  // a FaultInjector and a FleetTelemetry are configured). Counter handles
  // are resolved once here; fire() then bumps them lock-free relative to
  // the registry. Pass nullptr to detach. `reg` must outlive the injector
  // or the next set_registry call.
  void set_registry(telemetry::MetricRegistry* reg);

  // Binds this injector (and an instance id) to the current thread so that
  // paths without an explicit FaultInjector* — PageBuffer allocation — can
  // consult it. Restores the previous binding on destruction.
  class ScopedThreadBinding {
   public:
    ScopedThreadBinding(FaultInjector* injector, u32 instance) noexcept;
    ~ScopedThreadBinding();
    ScopedThreadBinding(const ScopedThreadBinding&) = delete;
    ScopedThreadBinding& operator=(const ScopedThreadBinding&) = delete;

   private:
    FaultInjector* prev_injector_;
    u32 prev_instance_;
  };

  // Consults the current thread's binding; false when none is installed.
  // Called by PageBuffer before mapping memory.
  static bool fire_alloc() noexcept;

 private:
  static u64 key(FaultSite site, u32 instance) noexcept {
    return (static_cast<u64>(instance) << 8) | static_cast<u64>(site);
  }

  const u64 seed_;
  const FaultPlan plan_;

  mutable std::mutex mu_;
  std::unordered_map<u64, u64> counters_;          // (instance,site) -> n
  std::unordered_map<u64, u64> injected_by_key_;   // (instance,site) -> hits
  FaultStats stats_;
  // Telemetry mirrors (null when no registry attached); written under mu_.
  std::array<telemetry::Counter*, kNumFaultSites> reg_checked_{};
  std::array<telemetry::Counter*, kNumFaultSites> reg_injected_{};
};

}  // namespace bigmap
