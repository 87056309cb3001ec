/// \file fault.h
/// \brief Deterministic, schedule-driven fault injection for the failure-
/// domain test layer (tests/chaos_test.cc) and manual chaos runs
/// (`serve --fault-spec`).
///
/// A `FaultInjector` holds a set of *armed* fault points keyed by name.
/// Production code declares a point with the `GPMV_FAULT_POINT(injector,
/// "name")` macro at an abort-safe spot (before any state mutation, or at
/// a spot whose failure the surrounding recovery machinery handles); the
/// macro evaluates to true when the point should fire this hit. Each point
/// fires either on explicit 1-based hit indices (`fire_on`) — the
/// deterministic schedules the chaos suite sweeps — or with a per-hit
/// probability drawn from a *per-point* RNG seeded from the injector seed
/// and the point name, so two points never share a random stream and a
/// (seed, schedule) pair reproduces exactly.
///
/// Registered point names (grep for GPMV_FAULT_POINT; docs/ROBUSTNESS.md
/// keeps the catalog):
///   stream.apply      — fail a streamed micro-batch commit before any
///                       mutation (exercises applier retry/quarantine)
///   snapshot.refreeze — drop the incremental re-freeze fast path for one
///                       commit (degradation to a full rebuild, not an
///                       error)
///   executor.task     — reject a pool submission with kResourceExhausted
///   exporter.write    — fail one metrics-snapshot write
///   net.accept        — drop a just-accepted client connection
///   net.read          — fail a socket read (abrupt connection close)
///   net.write         — fail a socket flush write (abrupt close)
///
/// Cost when disabled: building with -DGPMV_FAULT_INJECTION=OFF compiles
/// every GPMV_FAULT_POINT to the constant `false` — no call, no branch on
/// the injector pointer. When compiled in but no injector is wired (the
/// default: EngineOptions::fault == nullptr), the macro is one null-pointer
/// test. With an injector attached, a disarmed injector costs one relaxed
/// atomic load; only armed points take the mutex + name lookup (fault
/// points sit on per-batch / per-round paths, never per-edge ones).
///
/// Thread safety: Arm/Disarm/ShouldFail/counter reads are safe from any
/// thread. Firing decisions serialize under the injector mutex, so an
/// explicit fire-on-Nth schedule fires exactly once even when two threads
/// race the same point.

#ifndef GPMV_COMMON_FAULT_H_
#define GPMV_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/status.h"

// Default-on so a plain compile (no build-system flag) matches the CMake
// default; CMake passes =0 for -DGPMV_FAULT_INJECTION=OFF builds.
#ifndef GPMV_FAULT_INJECTION
#define GPMV_FAULT_INJECTION 1
#endif

namespace gpmv {

/// When one fault point fires. `fire_on` and `probability` compose: a hit
/// fires if its 1-based index is listed OR the per-point coin lands, and
/// `limit` caps total fires either way (0 = unlimited).
struct FaultPointSpec {
  double probability = 0.0;       ///< per-hit fire probability in [0, 1]
  std::vector<uint64_t> fire_on;  ///< explicit 1-based hit indices
  uint64_t limit = 0;             ///< max total fires (0 = unlimited)
};

/// See file comment.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 42) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms, resetting hit/fire counters) one point.
  void Arm(const std::string& point, FaultPointSpec spec);

  /// Disarms one point; its counters stay readable. No-op if unknown.
  void Disarm(const std::string& point);
  void DisarmAll();

  /// Arms points from a CLI spec string: `;`-separated entries, each
  /// either `name@N[+N...]` (fire on the listed 1-based hits) or `name%P`
  /// (fire each hit with probability P). Example:
  /// `stream.apply@3;exporter.write%0.5`.
  Status ArmFromSpec(const std::string& spec);

  /// The hot call behind GPMV_FAULT_POINT: records a hit on `point` and
  /// decides whether it fires. Cheap (one relaxed load) while nothing is
  /// armed.
  bool ShouldFail(const char* point);

  /// Lifetime hit / fire counts for `point` (0 if never armed).
  uint64_t hits(const std::string& point) const;
  uint64_t fired(const std::string& point) const;
  /// Total fires across all points.
  uint64_t total_fired() const {
    return total_fired_.load(std::memory_order_relaxed);
  }

  /// The canonical error an injected failure surfaces as: an IOError whose
  /// message carries the recognizable "injected fault:" prefix plus the
  /// point name — chaos assertions and logs key off it.
  static Status InjectedFault(const char* point) {
    return Status::IOError(std::string("injected fault: ") + point);
  }

 private:
  struct PointState {
    FaultPointSpec spec;
    Rng rng{0};
    uint64_t hits = 0;
    uint64_t fired = 0;
    bool armed = false;
  };

  const uint64_t seed_;
  /// Count of currently armed points — the disarmed fast path.
  std::atomic<int> armed_points_{0};
  std::atomic<uint64_t> total_fired_{0};
  mutable std::mutex mu_;
  std::unordered_map<std::string, PointState> points_;
};

#if GPMV_FAULT_INJECTION
/// True when the (possibly null) injector wants this hit of `point` to
/// fail. Callers decide what failing means at that site (error return,
/// degraded path, rejected submission).
#define GPMV_FAULT_POINT(injector, point) \
  ((injector) != nullptr && (injector)->ShouldFail(point))
#else
#define GPMV_FAULT_POINT(injector, point) false
#endif

}  // namespace gpmv

#endif  // GPMV_COMMON_FAULT_H_
