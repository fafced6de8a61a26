#include "net/framed_conn.h"

#include <errno.h>
#include <sys/socket.h>

#include <utility>

#include "common/failpoint.h"

namespace upa::net {
namespace {

/// True when an active failpoint at `site` fires: any injected action is a
/// transport failure on the conn.
bool Injected(const char* site) {
  return Failpoints::Instance().AnyActive() &&
         !Failpoints::Instance().Evaluate(site).ok();
}

}  // namespace

Result<std::unique_ptr<FramedConn>> FramedConn::Open(
    EventLoop* loop, int fd, size_t max_frame_bytes, size_t pause_above_bytes,
    ReadyCallback on_ready) {
  std::unique_ptr<FramedConn> conn(new FramedConn(
      loop, fd, max_frame_bytes, pause_above_bytes, std::move(on_ready)));
  FramedConn* self = conn.get();
  Status registered = loop->RegisterFd(
      fd, /*want_read=*/true, /*want_write=*/true,
      [self](bool readable, bool writable, bool error) {
        // Copied first: the owner may destroy the conn from inside it.
        ReadyCallback on_ready = self->on_ready_;
        if (error) {
          self->MarkClosed();
        } else if (writable) {
          self->Flush();
        }
        on_ready(readable, writable);
      });
  if (!registered.ok()) return registered;
  return conn;
}

FramedConn::FramedConn(EventLoop* loop, int fd, size_t max_frame_bytes,
                       size_t pause_above_bytes, ReadyCallback on_ready)
    : loop_(loop),
      fd_(fd),
      pause_above_bytes_(pause_above_bytes),
      on_ready_(std::move(on_ready)),
      assembler_(max_frame_bytes),
      last_activity_ns_(NowNanos()) {}

FramedConn::~FramedConn() { loop_->CloseFd(fd_); }

bool FramedConn::Next(Frame* frame, Status* error) {
  if (closed_ || close_after_flush_) return false;
  for (;;) {
    switch (assembler_.Next(frame, error)) {
      case FrameAssembler::Outcome::kFrame:
        return true;
      case FrameAssembler::Outcome::kError:
        return false;
      case FrameAssembler::Outcome::kNeedMore:
        break;
    }
    if (reads_paused_) return false;
    if (Injected("net/read")) {
      MarkClosed();
      return false;
    }
    char buf[64 * 1024];
    ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      last_activity_ns_ = NowNanos();
      assembler_.Feed(std::string_view(buf, static_cast<size_t>(n)));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    MarkClosed();  // orderly EOF or a hard error
    return false;
  }
}

void FramedConn::Send(std::string bytes) {
  if (closed_ || close_after_flush_) return;
  Enqueue(std::move(bytes));
  Flush();
}

void FramedConn::Abort(const Status& error) {
  if (closed_ || close_after_flush_) return;
  Enqueue(EncodeErrorFrame(error));
  close_after_flush_ = true;
  Flush();
}

void FramedConn::Flush() {
  if (closed_) return;
  while (out_offset_ < out_.size()) {
    if (Injected("net/write")) {
      MarkClosed();
      return;
    }
    ssize_t n = ::send(fd_, out_.data() + out_offset_,
                       out_.size() - out_offset_, MSG_NOSIGNAL);
    if (n > 0) {
      out_offset_ += static_cast<size_t>(n);
      last_activity_ns_ = NowNanos();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    MarkClosed();
    return;
  }
  if (out_offset_ == out_.size()) {
    out_.clear();
    out_offset_ = 0;
    if (close_after_flush_) {
      MarkClosed();
      return;
    }
  }
  const size_t buffered = buffered_output();
  if (buffered > pause_above_bytes_) {
    reads_paused_ = true;
  } else if (buffered == 0) {
    reads_paused_ = false;
  }
  SetInterest(!reads_paused_ && !close_after_flush_, buffered > 0);
}

void FramedConn::Enqueue(std::string bytes) {
  if (out_.empty()) {
    out_ = std::move(bytes);
  } else {
    out_ += bytes;
  }
}

void FramedConn::MarkClosed() {
  if (closed_) return;
  closed_ = true;
  out_.clear();
  out_offset_ = 0;
  // The peer sees the close now; the loop sees a hangup on the fd, which
  // brings the owner round to destroy the conn.
  ::shutdown(fd_, SHUT_RDWR);
  SetInterest(false, false);
}

void FramedConn::SetInterest(bool want_read, bool want_write) {
  if (want_read == want_read_ && want_write == want_write_) return;
  want_read_ = want_read;
  want_write_ = want_write;
  (void)loop_->UpdateFd(fd_, want_read, want_write);
}

}  // namespace upa::net
