#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace gpmv {
namespace net {

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + std::strerror(errno));
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(wakeup): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status EventLoop::Watch(int fd, uint32_t events, FdHandler handler) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(add): ") +
                           std::strerror(errno));
  }
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(mod): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void EventLoop::Unwatch(int fd) {
  if (handlers_.erase(fd) == 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  Wakeup();
}

uint64_t EventLoop::RunAfter(double delay_ms, std::function<void()> fn) {
  if (delay_ms < 0) delay_ms = 0;
  const TimerKey key{
      std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(delay_ms)),
      next_timer_id_++};
  timers_.emplace(key, std::move(fn));
  timer_index_.emplace(key.id, key);
  return key.id;
}

void EventLoop::CancelTimer(uint64_t id) {
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) return;
  timers_.erase(it->second);
  timer_index_.erase(it);
}

void EventLoop::RequestStop() {
  stop_.store(true, std::memory_order_release);
  Wakeup();
}

void EventLoop::Wakeup() {
  const uint64_t one = 1;
  // Failure (full counter) still leaves the eventfd readable — good enough.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::DrainPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::RunExpiredTimers() {
  const auto now = std::chrono::steady_clock::now();
  // A timer callback may schedule new timers; those run on a later tick
  // even when due immediately (they sort after the ones expiring now and
  // the loop below re-reads begin()).
  while (!timers_.empty() && timers_.begin()->first.when <= now) {
    auto node = timers_.extract(timers_.begin());
    timer_index_.erase(node.key().id);
    node.mapped()();
  }
}

int EventLoop::TimeoutMs(int max_wait_ms) const {
  if (max_wait_ms < 0) max_wait_ms = 0;
  if (timers_.empty()) return max_wait_ms;
  const auto now = std::chrono::steady_clock::now();
  const auto due = timers_.begin()->first.when;
  if (due <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(due - now)
          .count() +
      1;  // round up so the wait does not undershoot the deadline
  return static_cast<int>(
      std::min<long long>(ms, static_cast<long long>(max_wait_ms)));
}

bool EventLoop::RunOnce(int max_wait_ms) {
  if (stop_requested()) return false;
  struct epoll_event events[64];
  const int n =
      ::epoll_wait(epoll_fd_, events, 64, TimeoutMs(max_wait_ms));
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      uint64_t drain = 0;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
      continue;
    }
    auto it = handlers_.find(fd);
    if (it == handlers_.end()) continue;  // removed by an earlier handler
    std::shared_ptr<FdHandler> h = it->second;  // survive self-Unwatch
    (*h)(events[i].events);
  }
  DrainPosted();
  RunExpiredTimers();
  if (after_pass_) after_pass_();
  return !stop_requested();
}

void EventLoop::Run() {
  while (RunOnce(100)) {
  }
  // A Post racing RequestStop still runs (its Wakeup may have landed after
  // our final epoll wait), and so does the pass-end hook after it.
  DrainPosted();
  if (after_pass_) after_pass_();
}

}  // namespace net
}  // namespace gpmv
