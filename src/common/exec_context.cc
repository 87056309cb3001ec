#include "common/exec_context.h"

#include <limits>

namespace gpmv {
namespace exec {

namespace {

thread_local bool tl_deadline_active = false;
thread_local std::chrono::steady_clock::time_point tl_deadline;

}  // namespace

Scope::Scope(double deadline_ms)
    : prev_active_(tl_deadline_active), prev_deadline_(tl_deadline) {
  if (deadline_ms > 0.0) {
    tl_deadline_active = true;
    tl_deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double, std::milli>(deadline_ms));
  } else {
    tl_deadline_active = false;
  }
}

Scope::~Scope() {
  tl_deadline_active = prev_active_;
  tl_deadline = prev_deadline_;
}

bool DeadlineActive() { return tl_deadline_active; }

bool DeadlineExpired() {
  return tl_deadline_active && std::chrono::steady_clock::now() >= tl_deadline;
}

Status CheckDeadline() {
  if (DeadlineExpired()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::OK();
}

double DeadlineRemainingMs() {
  if (!tl_deadline_active) return std::numeric_limits<double>::max();
  const double ms = std::chrono::duration<double, std::milli>(
                        tl_deadline - std::chrono::steady_clock::now())
                        .count();
  return ms > 0.0 ? ms : 0.0;
}

}  // namespace exec
}  // namespace gpmv
