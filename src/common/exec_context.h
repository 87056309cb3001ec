/// \file exec_context.h
/// \brief Per-thread execution context for cooperative cancellation:
/// a query deadline (QueryOptions::deadline_ms), installed RAII-style for
/// the duration of one Execute call.
///
/// Why thread-local instead of parameter plumbing: the cancellation
/// checkpoints live deep inside the simulation fixpoints
/// (simulation/refinement.cc, simulation/bounded.cc), several layers below
/// any signature that could reasonably carry a deadline. Those loops run on
/// the thread that called Execute, so a thread-local installed at Execute
/// entry is visible at exactly the checkpoints that need it, with zero
/// signature churn and zero cost for code paths that never look. (The
/// edge-cut library in shard/ checks the same deadline at its merge-round
/// barriers, which also run on the calling thread.)
///
/// Contract for checkpoints: expiry is advisory — a loop that observes
/// `DeadlineExpired()` abandons work *early* and unwinds; the caller that
/// installed the Scope (QueryEngine::Execute) re-checks at the end and
/// converts any expiry into a clean kDeadlineExceeded response, never
/// publishing or memoizing a partial result. Nested scopes restore the
/// outer context on destruction.

#ifndef GPMV_COMMON_EXEC_CONTEXT_H_
#define GPMV_COMMON_EXEC_CONTEXT_H_

#include <chrono>

#include "common/status.h"

namespace gpmv {

namespace exec {

/// RAII install/restore of the calling thread's execution context.
/// `deadline_ms <= 0` installs "no deadline".
class Scope {
 public:
  explicit Scope(double deadline_ms);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool prev_active_;
  std::chrono::steady_clock::time_point prev_deadline_;
};

/// True when the current thread has a deadline installed.
bool DeadlineActive();

/// True when the installed deadline has passed (false with none
/// installed). One steady_clock read; loops call it every ~1k iterations,
/// not per element.
bool DeadlineExpired();

/// OK, or kDeadlineExceeded when the installed deadline has passed.
Status CheckDeadline();

/// Milliseconds until the installed deadline (clamped at 0); a huge value
/// with none installed. Bounds secondary waits (read-your-writes) so a
/// deadlined query never sleeps past its budget.
double DeadlineRemainingMs();

}  // namespace exec
}  // namespace gpmv

#endif  // GPMV_COMMON_EXEC_CONTEXT_H_
