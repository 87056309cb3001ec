/// \file trace.h
/// \brief Per-query structured tracing: a span tree built while
/// QueryEngine::Execute runs, serialized as a JSON line when the query
/// crosses the slow-query threshold (or surfaced whole through
/// QueryResponse::trace when tracing is on).
///
/// A Trace is single-writer by construction — it is owned by the one
/// thread executing the query, so spans need no synchronization; the
/// finished tree is published through a shared_ptr<const TraceSpan> and
/// immutable from then on. Span times come from one steady-clock stopwatch
/// started at trace construction (start_ms offsets are all relative to it).
///
/// The span hierarchy the engine emits (docs/OBSERVABILITY.md):
///
///   query                      — root; plan kind, snapshot version, warm
///     queue.wait               — Submit-to-execution delay (Submit only)
///     plan                     — planner run; chosen kind, views
///     result_cache.lookup      — full-result memo probe; hit + bytes
///     view_cache.pin           — per-plan pin/materialize; hits, colds
///     fixpoint                 — the evaluation itself; iterations, ranks
///
/// The slow-query log (SlowQueryLog below) appends one self-contained JSON
/// object per line: {"trace_id":N,"total_ms":..,"span":{...}} with spans
/// nested as {"name","start_ms","dur_ms","attrs","children"}.

#ifndef GPMV_OBS_TRACE_H_
#define GPMV_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gpmv {
namespace obs {

/// One node of the span tree. Children are heap-allocated so handles stay
/// stable while siblings are appended.
struct TraceSpan {
  std::string name;
  double start_ms = 0.0;  ///< offset from trace start
  double dur_ms = 0.0;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<std::unique_ptr<TraceSpan>> children;

  void Attr(const std::string& key, std::string value) {
    attrs.emplace_back(key, std::move(value));
  }
  void Attr(const std::string& key, uint64_t value) {
    attrs.emplace_back(key, std::to_string(value));
  }
  void Attr(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    attrs.emplace_back(key, buf);
  }
  void AttrBool(const std::string& key, bool value) {
    attrs.emplace_back(key, value ? "true" : "false");
  }

  /// Depth-first lookup by name (tests + log readers).
  const TraceSpan* Find(const std::string& span_name) const;
};

/// Builder for one query's span tree (single-writer; see file comment).
class Trace {
 public:
  Trace(uint64_t id, std::string root_name);

  uint64_t id() const { return id_; }
  double ElapsedMs() const;

  /// Opens a child of the innermost open span. The returned pointer stays
  /// valid for the life of the trace.
  TraceSpan* Open(std::string name);
  /// Closes `span` (stamps dur_ms) and every span opened after it.
  void Close(TraceSpan* span);
  TraceSpan* root() { return root_.get(); }

  /// Closes every open span and releases the finished immutable tree.
  std::shared_ptr<const TraceSpan> Finish();

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
  uint64_t id_ = 0;
  std::shared_ptr<TraceSpan> root_;
  std::vector<TraceSpan*> open_;  ///< innermost last; root at front
};

/// RAII span helper, null-safe: with `trace == nullptr` every operation is
/// a no-op, so call sites read identically whether tracing is on or off.
class SpanScope {
 public:
  SpanScope(Trace* trace, const char* name)
      : trace_(trace),
        span_(trace != nullptr ? trace->Open(name) : nullptr) {}
  ~SpanScope() { Close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Explicit early close (idempotent).
  void Close() {
    if (trace_ != nullptr && span_ != nullptr) {
      trace_->Close(span_);
      span_ = nullptr;
    }
  }
  /// The underlying span; nullptr when tracing is off.
  TraceSpan* get() { return span_; }

  template <typename T>
  void Attr(const std::string& key, T value) {
    if (span_ != nullptr) span_->Attr(key, value);
  }
  void AttrBool(const std::string& key, bool value) {
    if (span_ != nullptr) span_->AttrBool(key, value);
  }

 private:
  Trace* trace_;
  TraceSpan* span_;
};

/// Serializes a finished span tree as one JSON line (no trailing newline):
/// {"trace_id":N,"total_ms":T,"span":{...}}. Attr values that parse as
/// numbers/bools are emitted unquoted so the log is typed.
std::string TraceToJsonLine(uint64_t trace_id, double total_ms,
                            const TraceSpan& root);

/// Threshold-gated slow-query sink: thread-safe line appender to a file
/// and/or a test-visible callback. The engine serializes the span tree of
/// any query slower than the threshold and hands the line here.
class SlowQueryLog {
 public:
  struct Options {
    double threshold_ms = 0.0;  ///< <= 0 disables the log entirely
    std::string path;           ///< appended to when non-empty
    /// Extra sink (tests, CLI echo); called with the serialized line.
    std::function<void(const std::string&)> sink;
  };

  explicit SlowQueryLog(Options opts);
  ~SlowQueryLog();
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  bool enabled() const {
    return opts_.threshold_ms > 0.0 &&
           (file_ != nullptr || opts_.sink != nullptr);
  }
  double threshold_ms() const { return opts_.threshold_ms; }

  /// Appends one line (newline added for the file sink) and flushes, so a
  /// crash loses at most the line being written.
  void Log(const std::string& json_line);

  size_t lines_written() const;

 private:
  Options opts_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  size_t lines_ = 0;
};

}  // namespace obs
}  // namespace gpmv

#endif  // GPMV_OBS_TRACE_H_
