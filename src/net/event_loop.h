// Single-threaded I/O event loop for the network front door.
//
// One thread owns every registered fd and all per-connection state; the
// only cross-thread entry point is RunInLoop(), which enqueues a closure
// and wakes the loop through a self-pipe. This is the threading contract
// the server relies on (DESIGN.md §8): the loop does I/O and bookkeeping
// only — query work runs on the engine pool and re-enters through
// RunInLoop to write responses.
//
// The readiness backend is epoll on Linux with a portable poll(2)
// fallback, selectable at runtime (PollerKind) so the fallback path is
// testable everywhere, not just on epoll-less builds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace upa::net {

/// Steady-clock nanoseconds: the time base of the loop's ticks and of every
/// deadline and idle scan its owners keep.
int64_t NowNanos();

enum class PollerKind {
  kEpoll,  // Linux epoll; falls back to kPoll where unavailable
  kPoll,   // portable poll(2)
};

/// Readiness demultiplexer: the part of the loop that differs between
/// epoll and poll. Not thread-safe; owned and driven by the loop thread.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Error/hangup readiness (EPOLLERR/EPOLLHUP); the fd callback decides
    /// whether that means close.
    bool error = false;
  };

  virtual ~Poller() = default;

  virtual Status Add(int fd, bool want_read, bool want_write) = 0;
  virtual Status Modify(int fd, bool want_read, bool want_write) = 0;
  virtual Status Remove(int fd) = 0;
  /// Blocks up to timeout_ms (-1 = indefinitely) and appends ready fds.
  virtual Status Wait(int timeout_ms, std::vector<Event>* out) = 0;

  /// Creates the requested backend (kEpoll silently degrades to kPoll on
  /// platforms without epoll).
  static std::unique_ptr<Poller> Create(PollerKind kind);
};

class EventLoop {
 public:
  /// Per-fd readiness callback. Runs on the loop thread. May close its own
  /// fd — the loop tolerates callbacks mutating the registration table
  /// mid-dispatch.
  using FdCallback = std::function<void(bool readable, bool writable,
                                        bool error)>;

  explicit EventLoop(PollerKind kind = PollerKind::kEpoll);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` for readiness callbacks. Loop thread only (use
  /// RunInLoop from outside).
  Status RegisterFd(int fd, bool want_read, bool want_write, FdCallback cb);
  /// Change interest set of a registered fd. Loop thread only.
  Status UpdateFd(int fd, bool want_read, bool want_write);
  /// Drop a registration and close the fd. Loop thread only.
  void CloseFd(int fd);

  /// Enqueue `fn` to run on the loop thread; wakes the loop if blocked in
  /// Wait. Thread-safe. Functions enqueued after Stop() (or after the loop
  /// exits) are destroyed unrun.
  void RunInLoop(std::function<void()> fn);

  /// Periodic callback on the loop thread (connection timeout scans).
  /// interval_ms <= 0 disables. Loop thread only (or before Run()).
  void SetTickHandler(double interval_ms, std::function<void()> on_tick);

  /// Run until Stop(). Must be called from exactly one thread, which
  /// becomes the loop thread.
  void Run();

  /// Ask the loop to exit after the current iteration. Thread-safe.
  void Stop();

  bool IsInLoopThread() const {
    return std::this_thread::get_id() == loop_thread_;
  }

 private:
  void DrainWakeups();
  int NextTimeoutMs() const;

  std::unique_ptr<Poller> poller_;
  std::map<int, FdCallback> callbacks_;
  /// fds closed during the current dispatch round; their remaining
  /// queued events are skipped so a reused fd number can't receive the old
  /// socket's readiness. Cleared at the top of each loop iteration.
  std::vector<int> dead_this_round_;

  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;

  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;
  bool stopped_ = false;  // guarded by pending_mu_

  double tick_interval_ms_ = 0.0;
  std::function<void()> on_tick_;
  int64_t next_tick_ns_ = 0;

  std::thread::id loop_thread_;
};

}  // namespace upa::net
