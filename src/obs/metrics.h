/// \file metrics.h
/// \brief The unified metrics registry: named counters, gauges and
/// log-bucketed latency histograms shared by every runtime layer (engine,
/// executor, stream, maintenance) and read by the exporters
/// (obs/exporter.h), the CLI summary table, the benches and the tests —
/// each by metric name, off one MetricsSnapshot.
///
/// Design:
///  * Handles are stable pointers. Callers resolve `Counter*`/`Gauge*`/
///    `Histogram*` once at init (FindOrCreate* takes a registration mutex)
///    and then update lock-free: a counter Add is one relaxed atomic add
///    into a striped per-thread cell, a histogram Record is two (bucket +
///    sum). Cells are cache-line padded and picked by a thread-local slot,
///    so hot paths never contend on one line.
///  * Untorn snapshots. Values are 64-bit atomics, so no read is ever torn
///    mid-word. Beyond that, writers that must keep *cross-metric*
///    invariants observable in every snapshot (e.g. stream.ops_ingested ==
///    ops_applied + ops_coalesced + ops_dropped, maintained per applied
///    micro-batch) wrap their update group in `GroupGuard` — a *shared*
///    lock on the snapshot gate — while TakeSnapshot (and any ReadGate
///    holder) holds the gate exclusively. Grouped writers therefore never
///    block each other; a snapshot briefly excludes them and sees every
///    group entirely or not at all. Ungrouped updates (per-task executor
///    histograms) skip the gate: they carry no cross-metric invariant, and
///    a snapshot may miss an in-flight record (bounded, monotone error).
///    The concurrency suite (tests/obs_test.cc, TSan label) stress-tests
///    exactly this contract.
///  * Histograms are power-of-two bucketed: bucket 0 counts values <= 1,
///    bucket b >= 1 counts [2^b, 2^(b+1)), the last bucket is open-ended.
///    p50/p95/p99 come from linear interpolation inside the straddling
///    bucket. Latencies record microseconds; size histograms record raw
///    counts (the unit is part of the metric name: `*_us`, `*_size`).
///
/// This header is dependency-free beyond the standard library (everything
/// under src/ may include it; nothing here includes anything under src/).

#ifndef GPMV_OBS_METRICS_H_
#define GPMV_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gpmv {
namespace obs {

/// Stripe width of counter/histogram cells. Power of two; 8 lines bound
/// the footprint while spreading writers of a hot metric across lines.
constexpr size_t kMetricCells = 8;

/// Histogram bucket count: 2^39 us =~ 6.4 days in the last closed bucket,
/// so no realistic latency lands in the open-ended tail.
constexpr size_t kHistogramBuckets = 40;

/// Thread-local stripe slot (stable per thread, assigned round-robin).
size_t ThreadCellIndex();

/// Monotone counter. Add is one relaxed atomic add into a striped cell;
/// Value sums the cells (so a concurrent reader may lag in-flight adds but
/// never reads a torn or decreasing value once writers quiesce).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    cells_[ThreadCellIndex() & (kMetricCells - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  Cell cells_[kMetricCells];
};

/// Point-in-time value (double). Set overwrites; SetMax keeps the running
/// maximum (CAS loop); Add accumulates (CAS loop — gauges are not hot).
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void SetMax(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void Add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-bucketed histogram (see file comment). Record is two relaxed adds
/// (bucket count + value sum) into one striped cell; count is derived as
/// the bucket sum, so count and buckets always agree within a snapshot.
class Histogram {
 public:
  /// Bucket for `v`: 0 when v <= 1, else floor(log2(v)), capped at the
  /// open-ended last bucket.
  static size_t BucketFor(uint64_t v) {
    size_t b = 0;
    while (v > 1 && b + 1 < kHistogramBuckets) {
      v >>= 1;
      ++b;
    }
    return b;
  }

  void Record(uint64_t value) {
    Cell& c = cells_[ThreadCellIndex() & (kMetricCells - 1)];
    c.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    c.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Sums one bucket across cells.
  uint64_t BucketCount(size_t b) const {
    uint64_t sum = 0;
    for (const Cell& c : cells_)
      sum += c.buckets[b].load(std::memory_order_relaxed);
    return sum;
  }
  uint64_t Sum() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.sum.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  Cell cells_[kMetricCells];
};

/// Read-only copy of one histogram with quantile estimation.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;  ///< in the recorded unit (us for latency histograms)
  std::vector<uint64_t> buckets;  ///< kHistogramBuckets entries

  double Average() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// straddling power-of-two bucket; exact to within one bucket's width.
  double Quantile(double q) const;
};

/// One untorn registry snapshot: every metric, name-sorted (deterministic
/// export order). Collectors may append derived gauges at snapshot time.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Collector-facing append (sorted again by TakeSnapshot afterwards).
  void AddGauge(std::string name, double value) {
    gauges.emplace_back(std::move(name), value);
  }

  /// Lookup helpers; 0 / nullptr when absent.
  uint64_t CounterValue(const std::string& name) const;
  double GaugeValue(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;
};

/// See file comment.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Handle resolution; stable pointers, same handle for the same name.
  /// A name must keep one kind (creating "x" as a counter and asking for
  /// gauge "x" returns a distinct metric namespaced by kind).
  Counter* FindOrCreateCounter(const std::string& name);
  Gauge* FindOrCreateGauge(const std::string& name);
  Histogram* FindOrCreateHistogram(const std::string& name);

  /// Registers a snapshot-time callback that appends derived gauges (e.g.
  /// component stats guarded by their own locks) to every snapshot.
  void AddCollector(std::function<void(MetricsSnapshot*)> fn);

  /// Shared lock on the snapshot gate: wrap a multi-metric update group in
  /// one of these and every snapshot observes the group atomically.
  /// Writers holding GroupGuards never block each other.
  std::shared_lock<std::shared_mutex> Group() const {
    return std::shared_lock<std::shared_mutex>(gate_);
  }
  /// Exclusive lock on the gate, for callers reading a few handles as one
  /// consistent cut without paying for a full TakeSnapshot (the racing
  /// readers of the concurrency suite).
  std::unique_lock<std::shared_mutex> ReadGate() const {
    return std::unique_lock<std::shared_mutex>(gate_);
  }

  /// Untorn snapshot of every metric + collector output (see file comment).
  MetricsSnapshot TakeSnapshot() const;

 private:
  mutable std::shared_mutex gate_;  ///< snapshot gate (see file comment)
  mutable std::mutex reg_mu_;       ///< guards the maps/storage/collectors
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::unordered_map<std::string, Counter*> counters_;
  std::unordered_map<std::string, Gauge*> gauges_;
  std::unordered_map<std::string, Histogram*> histograms_;
  std::vector<std::function<void(MetricsSnapshot*)>> collectors_;
};

}  // namespace obs
}  // namespace gpmv

#endif  // GPMV_OBS_METRICS_H_
