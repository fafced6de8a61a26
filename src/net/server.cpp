#include "net/server.h"

#include <unistd.h>

#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "common/hash.h"
#include "net/dial.h"

namespace upa::net {
namespace {

/// Failpoint probe usable in void handlers: non-OK (or an abort/delay
/// action) is surfaced as the injected Status for the caller to treat as a
/// transport failure on that connection.
Status Probe(const char* site) {
  if (Failpoints::Instance().AnyActive()) {
    return Failpoints::Instance().Evaluate(site);
  }
  return Status::Ok();
}

}  // namespace

Server::Server(service::UpaService* service, QueryCompiler compiler,
               ServerConfig config)
    : service_(service),
      compiler_(std::move(compiler)),
      config_(std::move(config)),
      loop_(config_.poller),
      mailbox_(std::make_shared<Mailbox>()) {
  mailbox_->loop = &loop_;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  if (service_ == nullptr) {
    return Status::InvalidArgument("server requires a service");
  }
  if (!compiler_) {
    return Status::InvalidArgument("server requires a query compiler");
  }
  if (config_.max_connections == 0) {
    return Status::InvalidArgument("max_connections must be positive");
  }
  if (config_.max_pipelined_per_connection == 0) {
    return Status::InvalidArgument(
        "max_pipelined_per_connection must be positive");
  }
  if (config_.max_frame_bytes < kFrameHeaderBytes) {
    return Status::InvalidArgument("max_frame_bytes is below a frame header");
  }

  Result<Listening> listening = Listen(config_.host, config_.port);
  if (!listening.ok()) return listening.status();
  listen_fd_ = listening.value().fd;
  port_ = listening.value().port;

  started_ = true;
  loop_thread_ = std::thread([this] {
    Status registered = loop_.RegisterFd(
        listen_fd_, /*want_read=*/true, /*want_write=*/false,
        [this](bool readable, bool, bool) {
          if (readable) HandleAccept();
        });
    UPA_CHECK_MSG(registered.ok(), registered.ToString());
    if (config_.tick_interval_ms > 0.0) {
      loop_.SetTickHandler(config_.tick_interval_ms, [this] { OnTick(); });
    }
    loop_.Run();
    // Loop exited: tear down every fd on the owning thread.
    for (auto& [id, conn] : connections_) {
      for (auto& [seq, token] : conn.inflight) {
        token->Cancel(StatusCode::kCancelled, "server shutting down");
      }
    }
    connections_.clear();
    if (listen_fd_ >= 0) loop_.CloseFd(listen_fd_);
  });
  return Status::Ok();
}

void Server::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;

  // Stop accepting (existing connections keep flowing while we drain).
  // Accept whatever the kernel already completed first: posted closures
  // run before fd events, so a handshake finished just before Stop()
  // would otherwise be dropped unserved with its accept event.
  loop_.RunInLoop([this] {
    HandleAccept();
    loop_.CloseFd(listen_fd_);
    listen_fd_ = -1;
  });

  // Graceful drain: wait for in-flight queries and buffered responses.
  // The quiescence probe runs on the loop thread and first drains any
  // bytes the kernel already buffered — a request whose frame was sent
  // before Stop() but not yet read would otherwise be invisible to the
  // atomics and get cut off mid-handshake.
  int64_t deadline_ns =
      NowNanos() + static_cast<int64_t>(config_.drain_timeout_ms * 1e6);
  while (NowNanos() < deadline_ns) {
    auto probe = std::make_shared<std::promise<bool>>();
    std::future<bool> quiescent = probe->get_future();
    loop_.RunInLoop([this, probe] {
      std::vector<uint64_t> ids;
      ids.reserve(connections_.size());
      for (const auto& [id, conn] : connections_) ids.push_back(id);
      for (uint64_t id : ids) HandleReady(id, /*readable=*/true);
      bool quiet =
          mailbox_->pending_requests.load(std::memory_order_acquire) == 0;
      for (const auto& [id, conn] : connections_) {
        if (!conn.inflight.empty() || conn.io->buffered_output() > 0 ||
            conn.io->buffered_input() > 0) {
          quiet = false;
          break;
        }
      }
      probe->set_value(quiet);
    });
    if (quiescent.wait_until(std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(
                                 deadline_ns - NowNanos())) !=
        std::future_status::ready) {
      break;  // loop wedged past the drain deadline; stop anyway
    }
    if (quiescent.get() &&
        mailbox_->pending_requests.load(std::memory_order_acquire) == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Cut the completion bridge: callbacks still running on pool threads see
  // a null loop and drop their response bytes instead of touching a loop
  // that is about to be destroyed.
  {
    std::lock_guard<std::mutex> lock(mailbox_->mu);
    mailbox_->loop = nullptr;
  }
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_connections = rejected_connections_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.disconnect_cancels = disconnect_cancels_.load(std::memory_order_relaxed);
  s.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::StatsText() const {
  Stats s = stats();
  std::ostringstream os;
  os << "== net ==\n"
     << "  port                 " << port_ << "\n"
     << "  open_connections     " << s.open_connections << "\n"
     << "  accepted             " << s.accepted << "\n"
     << "  rejected_connections " << s.rejected_connections << "\n"
     << "  frames_in            " << s.frames_in << "\n"
     << "  frames_out           " << s.frames_out << "\n"
     << "  protocol_errors      " << s.protocol_errors << "\n"
     << "  disconnect_cancels   " << s.disconnect_cancels << "\n"
     << "  idle_closed          " << s.idle_closed << "\n";
  return os.str();
}

void Server::HandleAccept() {
  for (int fd; (fd = Accept(listen_fd_)) >= 0;) {
    if (!Probe("net/accept").ok() ||
        connections_.size() >= config_.max_connections) {
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    Result<std::unique_ptr<FramedConn>> io = FramedConn::Open(
        &loop_, fd, config_.max_frame_bytes, config_.write_buffer_high_bytes,
        [this, id](bool readable, bool) { HandleReady(id, readable); });
    if (!io.ok()) {
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Connection& conn = connections_[id];
    conn.id = id;
    conn.io = std::move(io).value();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
  }
}

void Server::HandleReady(uint64_t conn_id, bool readable) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  if (readable) ProcessFrames(it->second);
  if (it->second.io->closed()) CloseConnection(conn_id);
}

void Server::Reply(Connection& conn, std::string bytes) {
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  conn.io->Send(std::move(bytes));
}

void Server::ProcessFrames(Connection& conn) {
  Frame frame;
  Status error = Status::Ok();
  while (error.ok() && conn.io->Next(&frame, &error)) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    error = Probe("net/decode");
    if (error.ok()) error = HandleFrame(conn, std::move(frame));
  }
  // A framing or payload error condemns the stream: it cannot be
  // resynchronised, so report once, flush, close.
  if (!error.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    conn.io->Abort(error);
  }
}

Status Server::HandleFrame(Connection& conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kQueryRequest: {
      WireQuery query;
      UPA_RETURN_IF_ERROR(DecodeQueryPayload(frame.payload, &query));
      DispatchQuery(conn, std::move(query));
      return Status::Ok();
    }
    case FrameType::kStatsRequest: {
      std::string text = service_->StatsReport();
      text += StatsText();
      Reply(conn, EncodeStatsResponseFrame(text));
      return Status::Ok();
    }
    default:
      // A client has no business sending response/error frames.
      return Status::InvalidArgument("unexpected frame type from client");
  }
}

void Server::DispatchQuery(Connection& conn, WireQuery query) {
  uint64_t conn_id = conn.id;
  uint64_t client_tag = query.client_tag;

  auto reject = [&](const Status& status) {
    WireResult result;
    result.client_tag = client_tag;
    result.code = status.code();
    result.message = status.message();
    result.retry_after_ms = status.retry_after_ms();
    Reply(conn, EncodeResultFrame(result));
  };

  if (conn.inflight.size() >= config_.max_pipelined_per_connection) {
    reject(Status::ResourceExhausted(
        "too many pipelined requests on this connection"));
    return;
  }

  Result<core::QueryInstance> compiled = compiler_(query);
  if (!compiled.ok()) {
    reject(compiled.status());
    return;
  }

  uint64_t seq = next_req_seq_++;
  auto token = std::make_shared<CancelToken>();
  conn.inflight[seq] = token;

  service::QueryRequest request;
  request.tenant = query.tenant;
  request.dataset_id = query.dataset_id;
  request.query = std::move(compiled).value();
  request.epsilon = query.epsilon;
  request.seed = query.seed;
  // The sensitivity-cache key is the server's hash of the SQL, never a
  // client-supplied value: a client choosing it could make one query reuse
  // another's cached sensitivity and output range.
  request.fingerprint = Fnv1a(query.sql);
  request.deadline_ms = query.deadline_ms;
  request.cancel = token;
  request.client_nonce = query.client_nonce;
  request.client_seq = query.client_seq;

  mailbox_->pending_requests.fetch_add(1, std::memory_order_acq_rel);
  // The completion runs on an engine pool thread (or inline for immediate
  // rejections). It encodes there — keeping serialization off the loop —
  // and posts finished bytes through the mailbox.
  auto mailbox = mailbox_;
  service_->SubmitAsync(
      std::move(request),
      [this, mailbox, conn_id, seq,
       client_tag](Result<service::QueryResponse> outcome) {
        WireResult result;
        result.client_tag = client_tag;
        if (outcome.ok()) {
          result.code = StatusCode::kOk;
          result.response = std::move(outcome).value();
        } else {
          result.code = outcome.status().code();
          result.message = outcome.status().message();
          result.retry_after_ms = outcome.status().retry_after_ms();
        }
        std::string bytes = EncodeResultFrame(result);
        std::lock_guard<std::mutex> lock(mailbox->mu);
        if (mailbox->loop == nullptr) {
          // Server torn down; the connection is gone anyway. Only the
          // shared Mailbox is touched here — `this` may already be dead.
          mailbox->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
          return;
        }
        mailbox->loop->RunInLoop(
            [this, conn_id, seq, bytes = std::move(bytes)]() mutable {
              CompleteRequest(conn_id, seq, std::move(bytes));
            });
      });
}

void Server::CompleteRequest(uint64_t conn_id, uint64_t seq,
                             std::string bytes) {
  mailbox_->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;  // client went away mid-request
  it->second.inflight.erase(seq);
  Reply(it->second, std::move(bytes));
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  for (auto& [seq, token] : it->second.inflight) {
    disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
    // The service observes the trip at its next cooperative check and
    // refunds the charge (nothing was released). The completion callback
    // still fires; CompleteRequest drops it — the connection is gone.
    token->Cancel(StatusCode::kCancelled, "client disconnected");
  }
  connections_.erase(it);
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void Server::OnTick() {
  if (config_.idle_timeout_ms <= 0.0) return;
  int64_t now = NowNanos();
  int64_t budget_ns = static_cast<int64_t>(config_.idle_timeout_ms * 1e6);
  std::vector<uint64_t> victims;
  for (const auto& [id, conn] : connections_) {
    // Only in-flight queries exempt a connection from reaping: no bytes
    // flow while the engine computes, so last_activity_ns goes stale
    // through no fault of the client. Buffered writes and partial frames
    // do NOT count as activity — a peer that stops reading its responses
    // (or drips a slow-loris request) makes no forward progress, and
    // last_activity_ns already advances on every successful recv/send.
    if (!conn.inflight.empty()) continue;
    if (now - conn.io->last_activity_ns() >= budget_ns) victims.push_back(id);
  }
  for (uint64_t id : victims) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(id);
  }
}

}  // namespace upa::net
