#include "cluster/router.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "net/dial.h"

namespace upa::cluster {

using net::NowNanos;

Router::Router(std::vector<ShardAddress> shards, RouterConfig config)
    : shard_addrs_(std::move(shards)),
      config_(std::move(config)),
      ring_(shard_addrs_.empty() ? 1 : shard_addrs_.size(),
            config_.ring_vnodes),
      loop_(config_.poller) {
  healthy_ = std::make_unique<std::atomic<bool>[]>(shard_addrs_.size());
  for (size_t i = 0; i < shard_addrs_.size(); ++i) healthy_[i] = false;
  jitter_state_ = config_.backoff_jitter_seed;
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (started_) return Status::InvalidArgument("router already started");
  if (shard_addrs_.empty()) {
    return Status::InvalidArgument("router requires at least one shard");
  }
  if (config_.max_connections == 0 || config_.max_inflight_per_shard == 0) {
    return Status::InvalidArgument("connection/in-flight caps must be > 0");
  }

  Result<net::Listening> listening = net::Listen(config_.host, config_.port);
  if (!listening.ok()) return listening.status();
  listen_fd_ = listening.value().fd;
  port_ = listening.value().port;

  links_.resize(shard_addrs_.size());
  for (size_t i = 0; i < shard_addrs_.size(); ++i) {
    links_[i].index = i;
    links_[i].addr = shard_addrs_[i];
    links_[i].backoff_ms = config_.backoff_initial_ms;
    links_[i].next_dial_ns = 0;  // dial on the first tick
  }

  started_ = true;
  loop_thread_ = std::thread([this] {
    Status registered = loop_.RegisterFd(
        listen_fd_, /*want_read=*/true, /*want_write=*/false,
        [this](bool readable, bool, bool) {
          if (readable) HandleAccept();
        });
    UPA_CHECK_MSG(registered.ok(), registered.ToString());
    loop_.SetTickHandler(config_.tick_interval_ms, [this] { OnTick(); });
    // Dial every shard right away instead of waiting for the first tick.
    for (ShardLink& link : links_) StartDial(link);
    loop_.Run();
    // Loop exited: tear everything down on the owning thread.
    connections_.clear();
    for (ShardLink& link : links_) link.conn.reset();
    if (listen_fd_ >= 0) loop_.CloseFd(listen_fd_);
  });
  return Status::Ok();
}

void Router::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  loop_.RunInLoop([this] {
    HandleAccept();
    loop_.CloseFd(listen_fd_);
    listen_fd_ = -1;
  });
  // Drain: give routed queries a chance to come back and flush out.
  int64_t deadline_ns =
      NowNanos() + static_cast<int64_t>(config_.drain_timeout_ms * 1e6);
  while (NowNanos() < deadline_ns) {
    auto probe = std::make_shared<std::promise<bool>>();
    std::future<bool> quiescent = probe->get_future();
    loop_.RunInLoop([this, probe] {
      bool quiet = total_inflight_.load(std::memory_order_acquire) == 0;
      for (const auto& [id, conn] : connections_) {
        if (conn.inflight > 0 || conn.io->buffered_output() > 0) {
          quiet = false;
          break;
        }
      }
      probe->set_value(quiet);
    });
    if (quiescent.wait_until(std::chrono::steady_clock::now() +
                             std::chrono::nanoseconds(deadline_ns -
                                                      NowNanos())) !=
        std::future_status::ready) {
      break;
    }
    if (quiescent.get()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
}

bool Router::ShardHealthy(size_t shard) const {
  return shard < shard_addrs_.size() &&
         healthy_[shard].load(std::memory_order_acquire);
}

Router::Stats Router::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.open_connections = open_connections_.load(std::memory_order_relaxed);
  s.routed = routed_.load(std::memory_order_relaxed);
  s.replies = replies_.load(std::memory_order_relaxed);
  s.rejected_unavailable =
      rejected_unavailable_.load(std::memory_order_relaxed);
  s.rejected_backpressure =
      rejected_backpressure_.load(std::memory_order_relaxed);
  s.shard_reconnects = shard_reconnects_.load(std::memory_order_relaxed);
  s.failed_over_inflight =
      failed_over_inflight_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.retried = retried_.load(std::memory_order_relaxed);
  s.retry_exhausted = retry_exhausted_.load(std::memory_order_relaxed);
  s.retry_parked = retry_parked_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::StatsText() const {
  Stats s = stats();
  std::ostringstream os;
  os << "== upa router ==\n"
     << "  port                  " << port_ << "\n"
     << "  shards                " << shard_addrs_.size() << "\n"
     << "  open_connections      " << s.open_connections << "\n"
     << "  accepted              " << s.accepted << "\n"
     << "  routed                " << s.routed << "\n"
     << "  replies               " << s.replies << "\n"
     << "  rejected_unavailable  " << s.rejected_unavailable << "\n"
     << "  rejected_backpressure " << s.rejected_backpressure << "\n"
     << "  shard_reconnects      " << s.shard_reconnects << "\n"
     << "  failed_over_inflight  " << s.failed_over_inflight << "\n"
     << "  protocol_errors       " << s.protocol_errors << "\n"
     << "  retried               " << s.retried << "\n"
     << "  retry_exhausted       " << s.retry_exhausted << "\n"
     << "  retry_parked          " << s.retry_parked << "\n";
  for (size_t i = 0; i < shard_addrs_.size(); ++i) {
    os << "  shard[" << i << "] " << shard_addrs_[i].host << ":"
       << shard_addrs_[i].port << " "
       << (ShardHealthy(i) ? "healthy" : "down");
    if (respawn_counter_) os << " respawns=" << respawn_counter_(i);
    os << "\n";
  }
  return os.str();
}

void Router::HandleAccept() {
  for (int fd; (fd = net::Accept(listen_fd_)) >= 0;) {
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    Result<std::unique_ptr<net::FramedConn>> io = net::FramedConn::Open(
        &loop_, fd, config_.max_frame_bytes, config_.write_buffer_high_bytes,
        [this, id](bool readable, bool) { HandleClientReady(id, readable); });
    if (!io.ok()) continue;
    ClientConn& conn = connections_[id];
    conn.id = id;
    conn.io = std::move(io).value();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_connections_.store(connections_.size(), std::memory_order_relaxed);
  }
}

void Router::HandleClientReady(uint64_t conn_id, bool readable) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  if (readable) ProcessClientFrames(it->second);
  if (!it->second.io->closed()) return;
  // Routed queries stay in flight on their shards; when the responses
  // come back the routes resolve to a gone connection and are dropped
  // (the shard has already released/charged — the client walked away).
  connections_.erase(it);
  open_connections_.store(connections_.size(), std::memory_order_relaxed);
}

void Router::ProcessClientFrames(ClientConn& conn) {
  net::Frame frame;
  Status error = Status::Ok();
  while (error.ok() && conn.io->Next(&frame, &error)) {
    error = HandleClientFrame(conn, std::move(frame));
  }
  if (!error.ok()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    conn.io->Abort(error);
  }
}

Status Router::HandleClientFrame(ClientConn& conn, net::Frame frame) {
  switch (frame.type) {
    case net::FrameType::kQueryRequest: {
      net::WireQuery query;
      UPA_RETURN_IF_ERROR(net::DecodeQueryPayload(frame.payload, &query));
      RouteQuery(conn, std::move(query));
      return Status::Ok();
    }
    case net::FrameType::kStatsRequest:
      // The router answers stats itself (its own counters + shard link
      // states) rather than fanning out to every shard: the dump stays
      // cheap and available even while shards are down.
      conn.io->Send(net::EncodeStatsResponseFrame(StatsText()));
      return Status::Ok();
    default:
      return Status::InvalidArgument("unexpected frame type from client");
  }
}

void Router::RouteQuery(ClientConn& conn, net::WireQuery query) {
  const size_t shard = ring_.ShardFor(query.dataset_id);
  ShardLink& link = links_[shard];

  auto reject = [&](const Status& status, std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
    net::WireResult result;
    result.client_tag = query.client_tag;
    result.code = status.code();
    result.message = status.message();
    result.retry_after_ms = status.retry_after_ms();
    conn.io->Send(net::EncodeResultFrame(result));
  };

  if (link.state != ShardLink::State::kHealthy) {
    // Breaker open (or half-open): fail fast rather than queue behind an
    // unknown outage, hinting when the next dial attempt is due.
    Status unavailable =
        Status::Unavailable("shard " + std::to_string(shard) +
                            " unavailable (reconnecting); retry");
    unavailable.set_retry_after_ms(
        std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms)));
    reject(unavailable, rejected_unavailable_);
    return;
  }
  if (link.inflight.size() >= config_.max_inflight_per_shard ||
      link.conn->buffered_output() > config_.write_buffer_high_bytes) {
    Status full =
        Status::ResourceExhausted("shard " + std::to_string(shard) +
                                  " is at in-flight capacity; retry");
    full.set_retry_after_ms(10);
    reject(full, rejected_backpressure_);
    return;
  }

  const uint64_t router_tag = next_router_tag_++;
  Route route;
  route.conn_id = conn.id;
  route.client_tag = query.client_tag;
  if (query.client_nonce != 0 && config_.retry_limit > 0) {
    // Keyed: keep the original query so a failover can re-send it. The
    // key makes the re-send budget-safe — a completed release replays.
    route.retries_left = config_.retry_limit;
    route.query = query;
  }
  ++conn.inflight;
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  routed_.fetch_add(1, std::memory_order_relaxed);
  query.client_tag = router_tag;
  link.inflight[router_tag] = std::move(route);
  link.conn->Send(net::EncodeQueryFrame(query));
}

void Router::RespondToClient(ClientConn& conn,
                             const net::WireResult& result) {
  replies_.fetch_add(1, std::memory_order_relaxed);
  conn.io->Send(net::EncodeResultFrame(result));
}

void Router::StartDial(ShardLink& link) {
  const int64_t now = NowNanos();
  Result<int> fd = net::StartConnect(link.addr.host, link.addr.port);
  if (!fd.ok()) {
    ScheduleRedial(link, now);
    return;
  }
  const size_t shard = link.index;
  Result<std::unique_ptr<net::FramedConn>> conn = net::FramedConn::Open(
      &loop_, fd.value(), config_.max_frame_bytes,
      net::FramedConn::kNeverPause,
      [this, shard](bool readable, bool writable) {
        HandleShardReady(shard, readable, writable);
      });
  if (!conn.ok()) {
    ScheduleRedial(link, now);
    return;
  }
  link.conn = std::move(conn).value();
  link.probe_outstanding = false;
  link.state = ShardLink::State::kConnecting;
  link.dial_deadline_ns =
      now + static_cast<int64_t>(config_.dial_timeout_ms * 1e6);
}

void Router::HandleShardReady(size_t shard, bool readable, bool writable) {
  ShardLink& link = links_[shard];
  Status status = Status::Ok();
  if (link.state == ShardLink::State::kConnecting && writable) {
    status = net::FinishConnect(link.conn->fd());
    if (status.ok()) {
      // Connected; probe before taking traffic. The probe doubles as the
      // recovery barrier: the shard only answers once its journal replay
      // finished (the server starts listening after recovery).
      link.state = ShardLink::State::kProbing;
      SendProbe(link);
    }
  }
  if (status.ok() && readable) status = ProcessShardFrames(link);
  if (status.ok() && link.conn->closed()) {
    status = Status::Unavailable("shard connection closed");
  }
  if (!status.ok()) FailShard(link, status);
}

Status Router::ProcessShardFrames(ShardLink& link) {
  net::Frame frame;
  Status error = Status::Ok();
  while (error.ok() && link.conn->Next(&frame, &error)) {
    error = HandleShardFrame(link, std::move(frame));
  }
  return error;
}

Status Router::HandleShardFrame(ShardLink& link, net::Frame frame) {
  switch (frame.type) {
    case net::FrameType::kQueryResponse: {
      net::WireResult result;
      UPA_RETURN_IF_ERROR(net::DecodeResultPayload(frame.payload, &result));
      auto route_it = link.inflight.find(result.client_tag);
      if (route_it == link.inflight.end()) {
        // Same rule as the client's stale-tag latch: a response nothing
        // is waiting for means the stream is desynchronized.
        return Status::Internal("shard response for unknown router tag");
      }
      Route route = route_it->second;
      link.inflight.erase(route_it);
      total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
      auto conn_it = connections_.find(route.conn_id);
      if (conn_it != connections_.end()) {
        ClientConn& conn = conn_it->second;
        if (conn.inflight > 0) --conn.inflight;
        result.client_tag = route.client_tag;
        RespondToClient(conn, result);
      }
      return Status::Ok();
    }
    case net::FrameType::kStatsResponse:
      link.probe_outstanding = false;
      if (link.state == ShardLink::State::kProbing) {
        link.state = ShardLink::State::kHealthy;
        link.backoff_ms = config_.backoff_initial_ms;
        healthy_[link.index].store(true, std::memory_order_release);
        // Recovery barrier passed: the shard answered, so its journal
        // replay is complete — parked routes can re-send now.
        FlushParked(link);
      }
      return Status::Ok();
    case net::FrameType::kError: {
      // The shard closes after an error frame; treat as link death.
      Status server_error = Status::Ok();
      if (!net::DecodeErrorPayload(frame.payload, &server_error).ok() ||
          server_error.ok()) {
        server_error = Status::Internal("undecodable shard error frame");
      }
      return server_error;
    }
    default:
      return Status::Internal("unexpected frame type from shard");
  }
}

void Router::SendProbe(ShardLink& link) {
  link.probe_outstanding = true;
  link.last_probe_ns = NowNanos();
  link.probe_deadline_ns =
      link.last_probe_ns +
      static_cast<int64_t>(config_.health_probe_timeout_ms * 1e6);
  link.conn->Send(net::EncodeStatsRequestFrame());
}

void Router::FailShard(ShardLink& link, const Status& reason) {
  link.conn.reset();
  healthy_[link.index].store(false, std::memory_order_release);
  shard_reconnects_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now = NowNanos();

  // Routed-but-unanswered queries: the shard may or may not have journaled
  // the release, but nothing was delivered. A keyed query with retry
  // budget left is parked — its idempotency key makes the eventual re-send
  // safe either way (journaled → replay; not journaled → the dangling
  // charge is refunded by recovery and the query re-runs). Everything else
  // fails back to the client as unresolved.
  for (auto& [router_tag, route] : link.inflight) {
    total_inflight_.fetch_sub(1, std::memory_order_acq_rel);
    auto conn_it = connections_.find(route.conn_id);
    if (conn_it == connections_.end()) continue;
    if (route.retries_left > 0) {
      --route.retries_left;
      route.park_deadline_ns =
          now + static_cast<int64_t>(config_.retry_timeout_ms * 1e6);
      retry_parked_.fetch_add(1, std::memory_order_relaxed);
      link.parked.push_back(std::move(route));
      continue;
    }
    ClientConn& conn = conn_it->second;
    failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
    if (conn.inflight > 0) --conn.inflight;
    net::WireResult result;
    result.client_tag = route.client_tag;
    result.code = StatusCode::kUnavailable;
    result.message =
        "shard " + std::to_string(link.index) + " lost: " + reason.message();
    result.retry_after_ms =
        std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms));
    RespondToClient(conn, result);
  }
  link.inflight.clear();
  link.probe_outstanding = false;
  ScheduleRedial(link, now);
}

void Router::FlushParked(ShardLink& link) {
  if (link.parked.empty()) return;
  std::vector<Route> pending = std::move(link.parked);
  link.parked.clear();
  for (Route& route : pending) ResendRoute(std::move(route));
}

void Router::ResendRoute(Route route) {
  retry_parked_.fetch_sub(1, std::memory_order_relaxed);
  auto conn_it = connections_.find(route.conn_id);
  if (conn_it == connections_.end()) return;  // client left while parked
  // Re-resolve the ring — the route must land wherever the dataset lives
  // NOW, not on the link it happened to be parked against.
  const size_t shard = ring_.ShardFor(route.query.dataset_id);
  ShardLink& link = links_[shard];
  ClientConn& conn = conn_it->second;
  if (link.state != ShardLink::State::kHealthy) {
    // The re-send raced another failure (or resolved to a different,
    // still-down shard): keep waiting on that link's recovery under the
    // original deadline. The park was already paid for from the retry
    // budget — re-parking costs nothing further.
    retry_parked_.fetch_add(1, std::memory_order_relaxed);
    link.parked.push_back(std::move(route));
    return;
  }
  if (link.inflight.size() >= config_.max_inflight_per_shard ||
      link.conn->buffered_output() > config_.write_buffer_high_bytes) {
    rejected_backpressure_.fetch_add(1, std::memory_order_relaxed);
    if (conn.inflight > 0) --conn.inflight;
    net::WireResult result;
    result.client_tag = route.client_tag;
    result.code = StatusCode::kResourceExhausted;
    result.message = "shard " + std::to_string(shard) +
                     " is at in-flight capacity after failover; retry";
    result.retry_after_ms = 10;
    RespondToClient(conn, result);
    return;
  }
  const uint64_t router_tag = next_router_tag_++;
  net::WireQuery query = route.query;
  query.client_tag = router_tag;
  retried_.fetch_add(1, std::memory_order_relaxed);
  total_inflight_.fetch_add(1, std::memory_order_acq_rel);
  link.inflight[router_tag] = std::move(route);
  link.conn->Send(net::EncodeQueryFrame(query));
}

void Router::ExpireParked(Route& route, const ShardLink& link) {
  retry_parked_.fetch_sub(1, std::memory_order_relaxed);
  retry_exhausted_.fetch_add(1, std::memory_order_relaxed);
  // An expired retry is still a failover failure as far as observers are
  // concerned — the retry machinery defers failures, it never hides them.
  failed_over_inflight_.fetch_add(1, std::memory_order_relaxed);
  auto conn_it = connections_.find(route.conn_id);
  if (conn_it == connections_.end()) return;
  ClientConn& conn = conn_it->second;
  if (conn.inflight > 0) --conn.inflight;
  net::WireResult result;
  result.client_tag = route.client_tag;
  result.code = StatusCode::kUnavailable;
  result.message = "shard " + std::to_string(link.index) +
                   " did not recover within the retry window";
  result.retry_after_ms =
      std::max<int64_t>(1, static_cast<int64_t>(link.backoff_ms));
  RespondToClient(conn, result);
}

double Router::JitteredBackoff(double ms) {
  if (config_.backoff_jitter <= 0.0) return ms;
  // Deterministic 64-bit LCG (loop thread only): cheap, seedable, and
  // reproducible across runs for the chaos harnesses.
  jitter_state_ = jitter_state_ * 6364136223846793005ULL +
                  1442695040888963407ULL;
  const double u =
      static_cast<double>((jitter_state_ >> 33) & 0xFFFFFFu) /
      static_cast<double>(0x1000000u);
  const double j = std::min(config_.backoff_jitter, 1.0);
  return ms * (1.0 - j / 2.0 + j * u);
}

void Router::ScheduleRedial(ShardLink& link, int64_t now) {
  link.state = ShardLink::State::kBackoff;
  link.next_dial_ns =
      now + static_cast<int64_t>(JitteredBackoff(link.backoff_ms) * 1e6);
  link.backoff_ms = std::min(link.backoff_ms * 2.0, config_.backoff_max_ms);
}

void Router::OnTick() {
  const int64_t now = NowNanos();
  for (ShardLink& link : links_) {
    if (!link.parked.empty()) {
      std::vector<Route> keep;
      keep.reserve(link.parked.size());
      for (Route& route : link.parked) {
        if (now >= route.park_deadline_ns) {
          ExpireParked(route, link);
        } else {
          keep.push_back(std::move(route));
        }
      }
      link.parked = std::move(keep);
    }
    switch (link.state) {
      case ShardLink::State::kBackoff:
        if (now >= link.next_dial_ns) StartDial(link);
        break;
      case ShardLink::State::kConnecting:
        if (now > link.dial_deadline_ns) {
          FailShard(link, Status::DeadlineExceeded("shard connect timed out"));
        }
        break;
      case ShardLink::State::kProbing:
        if (now > link.probe_deadline_ns) {
          FailShard(link,
                    Status::DeadlineExceeded("shard health probe timed out"));
        }
        break;
      case ShardLink::State::kHealthy:
        if (link.probe_outstanding && now > link.probe_deadline_ns) {
          FailShard(link,
                    Status::DeadlineExceeded("shard health probe timed out"));
        } else if (!link.probe_outstanding &&
                   config_.health_probe_interval_ms > 0.0 &&
                   now - link.last_probe_ns >
                       static_cast<int64_t>(
                           config_.health_probe_interval_ms * 1e6)) {
          SendProbe(link);
        }
        break;
    }
  }
}

}  // namespace upa::cluster
