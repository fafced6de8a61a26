#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#if defined(__linux__)
#include <sys/epoll.h>
#define UPA_NET_HAVE_EPOLL 1
#else
#define UPA_NET_HAVE_EPOLL 0
#endif

namespace upa::net {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + ::strerror(errno));
}

#if UPA_NET_HAVE_EPOLL
class EpollPoller : public Poller {
 public:
  EpollPoller() : epfd_(epoll_create1(EPOLL_CLOEXEC)) {}
  ~EpollPoller() override {
    if (epfd_ >= 0) ::close(epfd_);
  }

  Status Add(int fd, bool want_read, bool want_write) override {
    return Control(EPOLL_CTL_ADD, fd, want_read, want_write);
  }
  Status Modify(int fd, bool want_read, bool want_write) override {
    return Control(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  Status Remove(int fd) override {
    if (epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) != 0) {
      return ErrnoStatus("epoll_ctl(DEL)");
    }
    return Status::Ok();
  }

  Status Wait(int timeout_ms, std::vector<Event>* out) override {
    epoll_event events[64];
    int n = epoll_wait(epfd_, events, 64, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::Ok();
      return ErrnoStatus("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & EPOLLIN) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out->push_back(e);
    }
    return Status::Ok();
  }

 private:
  Status Control(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.data.fd = fd;
    if (want_read) ev.events |= EPOLLIN;
    if (want_write) ev.events |= EPOLLOUT;
    if (epoll_ctl(epfd_, op, fd, &ev) != 0) return ErrnoStatus("epoll_ctl");
    return Status::Ok();
  }

  int epfd_;
};
#endif  // UPA_NET_HAVE_EPOLL

/// Portable fallback: poll(2) over a registration map, pollfd array
/// rebuilt per Wait. O(fds) per wakeup — fine at front-door connection
/// counts; the epoll backend carries the scale story.
class PollPoller : public Poller {
 public:
  Status Add(int fd, bool want_read, bool want_write) override {
    interest_[fd] = {want_read, want_write};
    return Status::Ok();
  }
  Status Modify(int fd, bool want_read, bool want_write) override {
    auto it = interest_.find(fd);
    if (it == interest_.end()) {
      return Status::NotFound("poll: fd not registered");
    }
    it->second = {want_read, want_write};
    return Status::Ok();
  }
  Status Remove(int fd) override {
    interest_.erase(fd);
    return Status::Ok();
  }

  Status Wait(int timeout_ms, std::vector<Event>* out) override {
    pollfds_.clear();
    for (const auto& [fd, want] : interest_) {
      pollfd p{};
      p.fd = fd;
      if (want.first) p.events |= POLLIN;
      if (want.second) p.events |= POLLOUT;
      pollfds_.push_back(p);
    }
    int n = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) return Status::Ok();
      return ErrnoStatus("poll");
    }
    for (const pollfd& p : pollfds_) {
      if (p.revents == 0) continue;
      Event e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out->push_back(e);
    }
    return Status::Ok();
  }

 private:
  std::map<int, std::pair<bool, bool>> interest_;
  std::vector<pollfd> pollfds_;
};

}  // namespace

std::unique_ptr<Poller> Poller::Create(PollerKind kind) {
#if UPA_NET_HAVE_EPOLL
  if (kind == PollerKind::kEpoll) return std::make_unique<EpollPoller>();
#else
  (void)kind;
#endif
  return std::make_unique<PollPoller>();
}

EventLoop::EventLoop(PollerKind kind) : poller_(Poller::Create(kind)) {
  int fds[2];
  UPA_CHECK_MSG(::pipe(fds) == 0, "event loop wake pipe");
  wake_read_fd_ = fds[0];
  wake_write_fd_ = fds[1];
  ::fcntl(wake_read_fd_, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_write_fd_, F_SETFL, O_NONBLOCK);
  UPA_CHECK(poller_->Add(wake_read_fd_, /*want_read=*/true,
                         /*want_write=*/false)
                .ok());
}

EventLoop::~EventLoop() {
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
}

Status EventLoop::RegisterFd(int fd, bool want_read, bool want_write,
                             FdCallback cb) {
  UPA_RETURN_IF_ERROR(poller_->Add(fd, want_read, want_write));
  callbacks_[fd] = std::move(cb);
  return Status::Ok();
}

Status EventLoop::UpdateFd(int fd, bool want_read, bool want_write) {
  return poller_->Modify(fd, want_read, want_write);
}

void EventLoop::CloseFd(int fd) {
  (void)poller_->Remove(fd);
  callbacks_.erase(fd);
  ::close(fd);
  // Poison any readiness events for this fd still queued in the current
  // dispatch round: a callback that follows may accept a new connection
  // whose socket reuses this fd number, and the stale events (notably a
  // stale `error` flag) must not reach the fresh registration.
  dead_this_round_.push_back(fd);
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (stopped_) return;  // loop gone; drop the closure
    pending_.push_back(std::move(fn));
  }
  // Wake the loop; a full pipe already guarantees a pending wakeup.
  char byte = 1;
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

void EventLoop::SetTickHandler(double interval_ms,
                               std::function<void()> on_tick) {
  tick_interval_ms_ = interval_ms;
  on_tick_ = std::move(on_tick);
  next_tick_ns_ =
      NowNanos() + static_cast<int64_t>(tick_interval_ms_ * 1e6);
}

void EventLoop::DrainWakeups() {
  char buf[256];
  while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
  }
}

int EventLoop::NextTimeoutMs() const {
  if (tick_interval_ms_ <= 0.0 || !on_tick_) return -1;
  int64_t delta_ns = next_tick_ns_ - NowNanos();
  if (delta_ns <= 0) return 0;
  // Round up so a near-due tick doesn't spin at timeout 0.
  return static_cast<int>((delta_ns + 999999) / 1000000);
}

void EventLoop::Run() {
  loop_thread_ = std::this_thread::get_id();
  std::vector<Poller::Event> events;
  std::vector<std::function<void()>> to_run;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      if (stopped_) break;
    }

    events.clear();
    Status waited = poller_->Wait(NextTimeoutMs(), &events);
    UPA_CHECK_MSG(waited.ok(), waited.ToString());

    // Posted closures first: they may register/close fds the readiness
    // list below refers to (the callback lookup tolerates removals).
    dead_this_round_.clear();
    to_run.clear();
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      to_run.swap(pending_);
    }
    for (auto& fn : to_run) fn();

    for (const Poller::Event& event : events) {
      if (event.fd == wake_read_fd_) {
        DrainWakeups();
        continue;
      }
      // Skip fds closed earlier in this round even if the number was
      // re-registered since: the event belongs to the OLD socket, and a
      // fresh connection reusing the fd must not inherit it (the new fd's
      // own readiness arrives level-triggered on the next Wait).
      if (std::find(dead_this_round_.begin(), dead_this_round_.end(),
                    event.fd) != dead_this_round_.end()) {
        continue;
      }
      // Re-look-up per event: an earlier callback may have closed this fd.
      auto it = callbacks_.find(event.fd);
      if (it == callbacks_.end()) continue;
      // Copy: the callback may close its own fd, invalidating `it`.
      FdCallback cb = it->second;
      cb(event.readable, event.writable, event.error);
    }

    if (tick_interval_ms_ > 0.0 && on_tick_ && NowNanos() >= next_tick_ns_) {
      next_tick_ns_ =
          NowNanos() + static_cast<int64_t>(tick_interval_ms_ * 1e6);
      on_tick_();
    }
  }
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    stopped_ = true;
    pending_.clear();
  }
  char byte = 1;
  ssize_t ignored = ::write(wake_write_fd_, &byte, 1);
  (void)ignored;
}

}  // namespace upa::net
