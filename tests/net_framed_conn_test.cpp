// Unit tests of net::FramedConn (src/net/framed_conn.h) over a socketpair:
// reassembly across arbitrary read boundaries, the oversize-frame abort,
// the read pause and its "never pause" setting, close-after-flush, and the
// closing rule — a failed inline flush marks the conn closed without
// destroying it, and the owner destroys it from its ready callback.
#include "net/framed_conn.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"

namespace upa::net {
namespace {

void SetNonBlocking(int fd) {
  ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK), 0);
}

/// A FramedConn on one end of a socketpair; the test plays the peer on
/// the other end. The loop is only run by the tests that need callbacks.
struct ConnPair {
  explicit ConnPair(size_t pause_above_bytes = FramedConn::kNeverPause,
                    size_t max_frame_bytes = kDefaultMaxFrameBytes) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    SetNonBlocking(fds[0]);
    SetNonBlocking(fds[1]);
    peer = fds[1];
    auto opened = FramedConn::Open(&loop, fds[0], max_frame_bytes,
                                   pause_above_bytes,
                                   [this](bool readable, bool writable) {
                                     if (on_ready) on_ready(readable, writable);
                                   });
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    conn = std::move(opened).value();
  }
  ~ConnPair() {
    conn.reset();
    ::close(peer);
  }

  void PeerWrite(std::string_view bytes) {
    ASSERT_EQ(::send(peer, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Everything the peer can read now; sets `peer_eof` on end of stream.
  std::string PeerDrain() {
    std::string out;
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::recv(peer, buf, sizeof(buf), 0);
      if (n > 0) {
        out.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) peer_eof = true;
      return out;
    }
  }

  /// Alternates peer reads and conn flushes until the conn's output is
  /// out (or it closed); returns what the peer read.
  std::string DrainOutput() {
    std::string out;
    for (int i = 0; i < 10000 && !conn->closed(); ++i) {
      out += PeerDrain();
      conn->Flush();
      if (conn->buffered_output() == 0) break;
    }
    return out + PeerDrain();
  }

  /// Sends frames until the socket is full and more than `bytes` of output
  /// wait in the conn's buffer.
  void FillOutput(size_t bytes) {
    for (int i = 0; i < 1000 && conn->buffered_output() <= bytes; ++i) {
      conn->Send(EncodeStatsResponseFrame(std::string(60000, 'x')));
    }
    ASSERT_GT(conn->buffered_output(), bytes);
  }

  EventLoop loop;
  std::unique_ptr<FramedConn> conn;
  int peer = -1;
  bool peer_eof = false;
  FramedConn::ReadyCallback on_ready;
};

/// Every complete frame in `bytes`.
std::vector<Frame> ParseFrames(std::string_view bytes) {
  FrameAssembler assembler;
  assembler.Feed(bytes);
  std::vector<Frame> frames;
  Frame frame;
  Status error = Status::Ok();
  while (assembler.Next(&frame, &error) == FrameAssembler::Outcome::kFrame) {
    frames.push_back(frame);
  }
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  return frames;
}

class FramedConnTest : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::Instance().DeactivateAll(); }
  void TearDown() override { Failpoints::Instance().DeactivateAll(); }
};

TEST_F(FramedConnTest, FramesSplitAtEveryByteBoundaryAreReassembled) {
  WireQuery query;
  query.client_tag = 7;
  query.tenant = "t";
  query.dataset_id = "ds";
  query.sql = "SELECT COUNT(*) FROM orders";
  const std::string first = EncodeQueryFrame(query);
  const std::string second = EncodeStatsRequestFrame();
  const std::string stream = first + second;
  for (size_t split = 0; split <= stream.size(); ++split) {
    ConnPair pair;
    std::vector<Frame> got;
    Frame frame;
    Status error = Status::Ok();
    pair.PeerWrite(std::string_view(stream).substr(0, split));
    while (pair.conn->Next(&frame, &error)) got.push_back(frame);
    pair.PeerWrite(std::string_view(stream).substr(split));
    while (pair.conn->Next(&frame, &error)) got.push_back(frame);
    ASSERT_TRUE(error.ok()) << "split " << split << ": " << error.ToString();
    ASSERT_EQ(got.size(), 2u) << "split " << split;
    EXPECT_EQ(got[0].type, FrameType::kQueryRequest);
    EXPECT_EQ(EncodeFrame(got[0].type, got[0].payload), first);
    EXPECT_EQ(got[1].type, FrameType::kStatsRequest);
    EXPECT_FALSE(pair.conn->closed());
    EXPECT_EQ(pair.conn->buffered_input(), 0u);
  }
}

TEST_F(FramedConnTest, OversizeLengthYieldsOneErrorFrameThenClose) {
  ConnPair pair(FramedConn::kNeverPause, /*max_frame_bytes=*/64);
  pair.PeerWrite(EncodeStatsResponseFrame(std::string(1000, 'x')));
  Frame frame;
  Status error = Status::Ok();
  EXPECT_FALSE(pair.conn->Next(&frame, &error));
  ASSERT_EQ(error.code(), StatusCode::kResourceExhausted);

  pair.conn->Abort(error);
  pair.conn->Abort(error);  // a second abort adds nothing
  EXPECT_TRUE(pair.conn->closed());
  Status after = Status::Ok();
  EXPECT_FALSE(pair.conn->Next(&frame, &after));
  EXPECT_TRUE(after.ok());

  std::vector<Frame> frames = ParseFrames(pair.PeerDrain());
  EXPECT_TRUE(pair.peer_eof);
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].type, FrameType::kError);
  Status sent = Status::Ok();
  ASSERT_TRUE(DecodeErrorPayload(frames[0].payload, &sent).ok());
  EXPECT_EQ(sent.code(), StatusCode::kResourceExhausted);
}

TEST_F(FramedConnTest, ReadsPauseAboveTheMarkAndResumeOnceDrained) {
  ConnPair pair(/*pause_above_bytes=*/1024);
  pair.FillOutput(1024);
  EXPECT_TRUE(pair.conn->reads_paused());

  const std::string request = EncodeStatsRequestFrame();
  pair.PeerWrite(request);
  Frame frame;
  Status error = Status::Ok();
  EXPECT_FALSE(pair.conn->Next(&frame, &error));  // paused: not read
  EXPECT_EQ(pair.conn->buffered_input(), 0u);

  // Partly drained is not enough: reads resume only at empty.
  pair.PeerDrain();
  pair.conn->Flush();
  if (pair.conn->buffered_output() > 0) {
    EXPECT_TRUE(pair.conn->reads_paused());
  }
  pair.DrainOutput();
  ASSERT_EQ(pair.conn->buffered_output(), 0u);
  EXPECT_FALSE(pair.conn->reads_paused());
  ASSERT_TRUE(pair.conn->Next(&frame, &error));
  EXPECT_EQ(frame.type, FrameType::kStatsRequest);
  EXPECT_TRUE(error.ok());
}

TEST_F(FramedConnTest, NeverPauseKeepsReadingUnderABackedUpBuffer) {
  ConnPair pair(FramedConn::kNeverPause);
  pair.FillOutput(1u << 20);
  EXPECT_FALSE(pair.conn->reads_paused());
  pair.PeerWrite(EncodeStatsRequestFrame());
  Frame frame;
  Status error = Status::Ok();
  ASSERT_TRUE(pair.conn->Next(&frame, &error));
  EXPECT_EQ(frame.type, FrameType::kStatsRequest);
}

TEST_F(FramedConnTest, AbortClosesOnlyAfterItsErrorFrameIsFlushed) {
  ConnPair pair;
  pair.FillOutput(0);
  const size_t queued = pair.conn->buffered_output();
  pair.conn->Abort(Status::InvalidArgument("bad request"));
  EXPECT_FALSE(pair.conn->closed());  // error frame waits behind the rest
  // Ignored while closing: the first error frame is the last frame out.
  pair.conn->Abort(Status::Internal("second error"));
  pair.conn->Send(EncodeStatsResponseFrame("late"));
  EXPECT_EQ(pair.conn->buffered_output(),
            queued + EncodeErrorFrame(Status::InvalidArgument("bad request"))
                         .size());
  pair.PeerWrite(EncodeStatsRequestFrame());
  Frame frame;
  Status error = Status::Ok();
  EXPECT_FALSE(pair.conn->Next(&frame, &error));  // no reads once aborting

  std::vector<Frame> frames = ParseFrames(pair.DrainOutput());
  EXPECT_TRUE(pair.conn->closed());
  EXPECT_TRUE(pair.peer_eof);
  ASSERT_FALSE(frames.empty());
  for (size_t i = 0; i + 1 < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, FrameType::kStatsResponse);
  }
  EXPECT_EQ(frames.back().type, FrameType::kError);
}

// A write fault inside Abort's inline flush must not free the conn under
// its caller: the conn is only marked closed and stays valid, and the
// loop's hangup event brings the owner round to destroy it.
TEST_F(FramedConnTest, WriteFaultDuringAbortMarksClosedAndOwnerDestroys) {
  ConnPair pair;
  std::map<int, std::unique_ptr<FramedConn>> owner;
  owner[1] = std::move(pair.conn);
  int callbacks = 0;
  pair.on_ready = [&](bool, bool) {
    ++callbacks;
    auto it = owner.find(1);
    if (it != owner.end() && it->second->closed()) owner.erase(it);
  };

  ASSERT_TRUE(Failpoints::Instance()
                  .Activate("net/write", "error(internal,test-write)")
                  .ok());
  FramedConn& conn = *owner[1];
  conn.Abort(Status::InvalidArgument("bad request"));
  Failpoints::Instance().DeactivateAll();
  EXPECT_TRUE(conn.closed());  // marked, not destroyed: still readable
  EXPECT_EQ(conn.buffered_output(), 0u);
  conn.Send(EncodeStatsResponseFrame("late"));
  EXPECT_EQ(conn.buffered_output(), 0u);
  EXPECT_EQ(pair.PeerDrain(), "");
  EXPECT_TRUE(pair.peer_eof);

  const int64_t deadline = NowNanos() + 2'000'000'000;
  pair.loop.SetTickHandler(1.0, [&] {
    if (owner.empty() || NowNanos() > deadline) pair.loop.Stop();
  });
  pair.loop.Run();
  EXPECT_TRUE(owner.empty());
  EXPECT_GE(callbacks, 1);
}

}  // namespace
}  // namespace upa::net
