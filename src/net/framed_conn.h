// One framed, non-blocking socket connection on an EventLoop: the state
// machine net::Server's client connections and both sides of
// cluster::Router (client connections, shard links) have in common.
//
// Loop-thread only. A FramedConn owns:
//   - the fd and its EventLoop registration (the destructor unregisters
//     and closes),
//   - a FrameAssembler over what recv() produced,
//   - the write buffer, flushed inline on Send() and on writability,
//   - a read pause: while more than `pause_above_bytes` of output are
//     buffered the fd is not read, until the buffer fully drains (full
//     drain rather than a low watermark keeps the policy simple and the
//     tests observable); kNeverPause disables it,
//   - close-after-flush: Abort() queues an error frame and closes once it
//     is out,
//   - last_activity_ns(), advanced by every successful recv/send.
//
// Closing rule: a hard send/recv error, EOF, a socket error event, a
// finished close-after-flush or an injected "net/read" / "net/write" fault
// only MARKS the conn closed. Marking shuts the socket down, so the peer
// sees the close at once and the loop reports a hangup on the fd; it never
// destroys the conn or calls into its owner. The owner destroys closed
// conns in one place, its ready callback, which the loop runs after every
// event on the fd, that hangup included. A caller that just queued a
// write therefore always still holds a live conn.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/event_loop.h"
#include "net/wire.h"

namespace upa::net {

class FramedConn {
 public:
  /// `pause_above_bytes` value for a conn whose reads never pause.
  static constexpr size_t kNeverPause = std::numeric_limits<size_t>::max();

  /// Runs on the loop thread after every readiness event on the fd, once
  /// the conn has flushed (on writability) or marked itself closed (on a
  /// socket error). The owner reads frames with Next() and destroys the
  /// conn if closed().
  using ReadyCallback = std::function<void(bool readable, bool writable)>;

  /// Takes the non-blocking `fd` (closed on failure) and registers it with
  /// `loop`. The registration starts out watching writability: a fd whose
  /// connect is still in progress (net::StartConnect) reports the
  /// handshake through `on_ready`, and an accepted one drops the interest
  /// at its first, empty flush.
  static Result<std::unique_ptr<FramedConn>> Open(EventLoop* loop, int fd,
                                                  size_t max_frame_bytes,
                                                  size_t pause_above_bytes,
                                                  ReadyCallback on_ready);
  ~FramedConn();

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  /// Takes the next complete frame, reading the socket as needed; frames
  /// already buffered are handed out even while reads are paused. False
  /// when none is ready now: the socket would block, reads are paused, an
  /// Abort is flushing or the conn is closed — or the stream is corrupt,
  /// the one case that sets `*error`. A length-prefixed stream cannot be
  /// resynchronised, so the owner then aborts or drops the conn.
  bool Next(Frame* frame, Status* error);

  /// Queues `bytes` and flushes inline. Ignored once the conn is closed or
  /// an Abort is flushing (the error frame is the last one out).
  void Send(std::string bytes);

  /// Queues an error frame, stops reading, and closes once the frame is
  /// flushed.
  void Abort(const Status& error);

  /// Writes what the socket takes now (the conn does this itself on
  /// writability), then re-derives the read pause and the fd's interest.
  void Flush();

  int fd() const { return fd_; }
  bool closed() const { return closed_; }
  bool reads_paused() const { return reads_paused_; }
  size_t buffered_output() const { return out_.size() - out_offset_; }
  size_t buffered_input() const { return assembler_.buffered_bytes(); }
  int64_t last_activity_ns() const { return last_activity_ns_; }

 private:
  FramedConn(EventLoop* loop, int fd, size_t max_frame_bytes,
             size_t pause_above_bytes, ReadyCallback on_ready);

  void Enqueue(std::string bytes);
  void MarkClosed();
  void SetInterest(bool want_read, bool want_write);

  EventLoop* const loop_;
  const int fd_;
  const size_t pause_above_bytes_;
  ReadyCallback on_ready_;
  FrameAssembler assembler_;
  std::string out_;
  size_t out_offset_ = 0;
  bool reads_paused_ = false;
  bool close_after_flush_ = false;
  bool closed_ = false;
  bool want_read_ = true;
  bool want_write_ = true;
  int64_t last_activity_ns_ = 0;
};

}  // namespace upa::net
