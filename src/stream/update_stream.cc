#include "stream/update_stream.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace gpmv {

UpdateStream::UpdateStream(UpdateStreamOptions opts) : opts_(opts) {
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
}

PushError UpdateStream::Push(EdgeUpdate op, uint64_t ts) {
  return Enqueue(op, ts, /*block=*/true);
}

PushError UpdateStream::TryPush(EdgeUpdate op, uint64_t ts) {
  return Enqueue(op, ts, /*block=*/false);
}

PushError UpdateStream::Enqueue(EdgeUpdate op, uint64_t ts, bool block) {
  std::unique_lock<std::mutex> lk(mu_);
  // Validate before waiting for space: a stale ticket will be refused no
  // matter how long we wait, so parking the producer on a full queue first
  // would stall it (potentially unboundedly, behind a quarantined
  // consumer) only to refuse the op anyway.
  if (closed_) return PushError::kClosed;
  if (ts <= last_ts_) return PushError::kStaleTicket;
  if (queue_.size() >= opts_.queue_capacity) {
    if (!block) return PushError::kWouldBlock;
    not_full_.wait(lk, [this] {
      return closed_ || queue_.size() < opts_.queue_capacity;
    });
    if (closed_) return PushError::kClosed;
    // Another producer may have slipped a higher ticket in while we
    // waited — only possible for callers that don't serialize per stream.
    if (ts <= last_ts_) return PushError::kStaleTicket;
  }
  last_ts_ = ts;
  queue_.push_back(Element{op, ts, std::chrono::steady_clock::now()});
  max_depth_ = std::max(max_depth_, queue_.size());
  lk.unlock();
  not_empty_.notify_one();
  return PushError::kNone;
}

void UpdateStream::Close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (closed_) return;
    closed_ = true;
  }
  // Blocked producers fail their enqueue; a blocked consumer wakes to drain
  // the remainder (and to observe closed-and-empty).
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool UpdateStream::Drain(size_t max_ops, StreamDrainResult* out) {
  out->batch.clear();
  out->through_ts = 0;
  out->ops_popped = 0;
  out->depth_after = 0;
  out->oldest_wait_ms = 0.0;
  std::vector<EdgeUpdate> raw;
  {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return false;  // closed and drained: consumer done
    const auto now = std::chrono::steady_clock::now();
    out->oldest_wait_ms =
        std::chrono::duration<double, std::milli>(now -
                                                  queue_.front().enqueued_at)
            .count();
    const size_t n = std::min(std::max<size_t>(1, max_ops), queue_.size());
    raw.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      raw.push_back(queue_.front().op);
      out->through_ts = queue_.front().ts;
      queue_.pop_front();
    }
    out->ops_popped = n;
    out->depth_after = queue_.size();
  }
  not_full_.notify_all();
  out->batch = Coalesce(raw);
  return true;
}

uint64_t UpdateStream::last_ts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return last_ts_;
}

size_t UpdateStream::depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

size_t UpdateStream::max_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return max_depth_;
}

std::vector<EdgeUpdate> UpdateStream::Coalesce(
    const std::vector<EdgeUpdate>& ops) {
  std::vector<EdgeUpdate> out;
  out.reserve(ops.size());
  // Edge -> index of its (unique) surviving op in `out`; a later op on the
  // same edge overwrites in place, so `out` keeps first-occurrence order
  // with last-occurrence kinds. Key packs (u, v) into 64 bits.
  std::unordered_map<uint64_t, size_t> last;
  last.reserve(ops.size());
  for (const EdgeUpdate& op : ops) {
    const uint64_t key =
        (static_cast<uint64_t>(op.u) << 32) | static_cast<uint64_t>(op.v);
    auto [it, inserted] = last.emplace(key, out.size());
    if (inserted) {
      out.push_back(op);
    } else {
      out[it->second] = op;
    }
  }
  return out;
}

}  // namespace gpmv
