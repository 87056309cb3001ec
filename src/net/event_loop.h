/// \file event_loop.h
/// \brief Single-threaded epoll reactor underneath the net server
/// (net/server.h): fd readiness callbacks, cross-thread task posting via an
/// eventfd wakeup, steady-clock timers (the parked-op retry cadence rides
/// on them) and an after-pass hook (the server's write flush).
///
/// Threading contract: Watch/Modify/Unwatch/RunAfter/CancelTimer/
/// SetAfterPass and the dispatched callbacks run on the loop thread only
/// (the thread inside Run()/RunOnce). Post and RequestStop are safe from
/// any thread — they are the *only* cross-thread entry points; engine
/// workers use Post to hand encoded query responses back to the loop.
///
/// A callback may freely Unwatch (and close) its own fd, or any other fd,
/// mid-dispatch: handlers are held by shared_ptr for the duration of the
/// call and events for since-removed fds are skipped.
///
/// Tests drive the loop deterministically with RunOnce(max_wait_ms) instead
/// of Run() — each call processes at most one epoll wait plus every posted
/// task and expired timer, so a test interleaves loop ticks with its own
/// assertions.

#ifndef GPMV_NET_EVENT_LOOP_H_
#define GPMV_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gpmv {
namespace net {

/// See file comment.
class EventLoop {
 public:
  /// Receives the ready epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdHandler = std::function<void(uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll instance and the wakeup eventfd. Must succeed
  /// before anything else is called.
  Status Init();

  /// Registers `fd` for `events` (EPOLLIN etc.); `handler` runs on the
  /// loop thread whenever the fd is ready.
  Status Watch(int fd, uint32_t events, FdHandler handler);

  /// Changes the event mask of a watched fd (pausing reads = dropping
  /// EPOLLIN, arming writes = adding EPOLLOUT).
  Status Modify(int fd, uint32_t events);

  /// Deregisters `fd`. The caller still owns (and closes) the fd.
  void Unwatch(int fd);

  /// Enqueues `fn` to run on the loop thread; wakes a blocked epoll wait.
  /// Safe from any thread.
  void Post(std::function<void()> fn);

  /// Schedules `fn` to run on the loop thread once `delay_ms` has elapsed
  /// (steady clock). Returns a timer id for CancelTimer. Loop thread only.
  uint64_t RunAfter(double delay_ms, std::function<void()> fn);

  /// Drops a pending timer; no-op when it already fired. Loop thread only.
  void CancelTimer(uint64_t id);

  /// Installs `fn` to run once at the end of every pass — after the fd
  /// handlers, posted tasks and expired timers of that pass, before the
  /// next wait. Loop thread only (or before the loop runs).
  void SetAfterPass(std::function<void()> fn) { after_pass_ = std::move(fn); }

  /// Dispatches until RequestStop. Pending posted tasks are drained once
  /// more after the stop is observed, so a Post racing the stop is not
  /// silently lost.
  void Run();

  /// One loop tick: waits for readiness at most `max_wait_ms` (clipped to
  /// the next timer deadline; 0 polls), then dispatches fd events, posted
  /// tasks, expired timers and the after-pass hook. Returns false once stop
  /// was requested.
  bool RunOnce(int max_wait_ms);

  /// Makes Run return after the current tick. Safe from any thread;
  /// idempotent.
  void RequestStop();

  bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Fds currently watched (excluding the internal wakeup fd). Tests.
  size_t watched_fds() const { return handlers_.size(); }

 private:
  void Wakeup();
  void DrainPosted();
  void RunExpiredTimers();
  /// Epoll timeout honoring `max_wait_ms` and the earliest timer deadline.
  int TimeoutMs(int max_wait_ms) const;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> stop_{false};

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;

  /// shared_ptr so a handler survives its own Unwatch mid-dispatch.
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;

  /// Timers keyed by (deadline, id) — ordered map doubles as the min-heap;
  /// loop-thread-only so no lock.
  struct TimerKey {
    std::chrono::steady_clock::time_point when;
    uint64_t id;
    bool operator<(const TimerKey& o) const {
      return when != o.when ? when < o.when : id < o.id;
    }
  };
  std::map<TimerKey, std::function<void()>> timers_;
  std::unordered_map<uint64_t, TimerKey> timer_index_;  ///< id -> key
  uint64_t next_timer_id_ = 1;

  std::function<void()> after_pass_;
};

}  // namespace net
}  // namespace gpmv

#endif  // GPMV_NET_EVENT_LOOP_H_
