#include "net/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "net/socket_util.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace imcf {
namespace net {

namespace {

/// Wire front-door instrumentation (the imcf_net_* family), resolved once.
struct NetMetrics {
  obs::Gauge* connections;
  obs::Counter* connections_total;
  obs::Counter* frames_in;
  obs::Counter* frames_out;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* decode_errors;
  obs::Counter* shed_replies;
  obs::Counter* idle_closes;
  obs::Counter* overflow_closes;

  static const NetMetrics& Get() {
    static const NetMetrics* m = [] {
      auto& reg = obs::MetricRegistry::Default();
      auto* nm = new NetMetrics();
      nm->connections = reg.GetGauge("imcf_net_connections",
                                     "Wire connections currently open");
      nm->connections_total = reg.GetCounter(
          "imcf_net_connections_total", "Wire connections accepted");
      nm->frames_in = reg.GetCounter("imcf_net_frames_in_total",
                                     "Frames decoded off the wire");
      nm->frames_out = reg.GetCounter("imcf_net_frames_out_total",
                                      "Frames queued onto the wire");
      nm->bytes_in =
          reg.GetCounter("imcf_net_bytes_in_total", "Bytes read off sockets");
      nm->bytes_out = reg.GetCounter("imcf_net_bytes_out_total",
                                     "Bytes written to sockets");
      nm->decode_errors = reg.GetCounter(
          "imcf_net_decode_errors_total",
          "Malformed frames or payloads rejected by the strict decoder");
      nm->shed_replies = reg.GetCounter(
          "imcf_net_shed_replies_total",
          "Wire-level SHED replies (admission backpressure)");
      nm->idle_closes = reg.GetCounter("imcf_net_idle_closes_total",
                                       "Connections closed by idle timeout");
      nm->overflow_closes = reg.GetCounter(
          "imcf_net_overflow_closes_total",
          "Connections closed for exceeding the write-buffer cap");
      return nm;
    }();
    return *m;
  }
};

int64_t MonotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WireServer::WireServer(serve::FleetService* service, WireServerOptions options)
    : service_(service), options_(std::move(options)) {
  if (options_.epoll_wait_ms <= 0) options_.epoll_wait_ms = 50;
  if (options_.max_connections < 1) options_.max_connections = 1;
}

Result<std::unique_ptr<WireServer>> WireServer::Start(
    serve::FleetService* service, WireServerOptions options) {
  if (service == nullptr) {
    return Status::InvalidArgument("wire server: null service");
  }
  auto server = std::unique_ptr<WireServer>(
      new WireServer(service, std::move(options)));
  std::string error;
  server->listen_fd_ =
      BindListen(server->options_.port, /*backlog=*/128, &server->port_,
                 &error);
  if (server->listen_fd_ < 0) {
    return Status::IOError("wire server: " + error);
  }
  if (!SetNonBlocking(server->listen_fd_)) {
    CloseQuietly(server->listen_fd_);
    return Status::IOError("wire server: fcntl O_NONBLOCK failed");
  }
  server->epoll_fd_ = ::epoll_create1(0);
  if (server->epoll_fd_ < 0) {
    CloseQuietly(server->listen_fd_);
    return Status::IOError(std::string("wire server: epoll_create1: ") +
                           std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = server->listen_fd_;
  if (::epoll_ctl(server->epoll_fd_, EPOLL_CTL_ADD, server->listen_fd_,
                  &ev) != 0) {
    CloseQuietly(server->listen_fd_);
    CloseQuietly(server->epoll_fd_);
    return Status::IOError(std::string("wire server: epoll_ctl: ") +
                           std::strerror(errno));
  }
  server->running_.store(true, std::memory_order_release);
  server->thread_ = std::thread([raw = server.get()] { raw->Serve(); });
  return server;
}

WireServer::~WireServer() { Stop(); }

void WireServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (thread_.joinable()) thread_.join();
  // Clean drain: everything the wire admitted but has not answered yet is
  // executed now, so accepted work is never silently dropped. Responses go
  // out as far as the sockets will take them without blocking the stop.
  if (!pending_.empty()) DrainPending();
  for (auto& [fd, conn] : connections_) {
    if (conn.out_off < conn.outbuf.size()) {
      // Final flush on a closing socket: switch to blocking best-effort.
      (void)SendAll(fd, conn.outbuf.data() + conn.out_off,
                    conn.outbuf.size() - conn.out_off);
    }
    CloseQuietly(fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
  }
  NetMetrics::Get().connections->Add(
      -static_cast<double>(connections_.size()));
  connections_.clear();
  pending_.clear();
  if (listen_fd_ >= 0) {
    CloseQuietly(listen_fd_);
    listen_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    CloseQuietly(epoll_fd_);
    epoll_fd_ = -1;
  }
  port_ = 0;
}

void WireServer::Serve() {
  std::vector<epoll_event> events(128);
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               options_.epoll_wait_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      IMCF_LOG(kWarning) << "wire server: epoll_wait: "
                         << std::strerror(errno);
      break;
    }
    const int64_t now_ms = MonotonicMs();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == listen_fd_) {
        AcceptReady(now_ms);
        continue;
      }
      auto it = connections_.find(ev.data.fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      Connection& conn = it->second;
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn.fd);
        continue;
      }
      if (ev.events & EPOLLIN) {
        ReadReady(conn, now_ms);
        // ReadReady may close; re-find before touching the writer side.
        if (connections_.find(ev.data.fd) == connections_.end()) continue;
      }
      if (ev.events & EPOLLOUT) FlushWrites(connections_[ev.data.fd]);
    }
    // Admission happened frame by frame above; execution happens once per
    // loop batch so the worker pool sees the whole wavefront at once.
    if (!pending_.empty()) DrainPending();
    FlushAll();
    SweepIdle(now_ms);
  }
}

void WireServer::AcceptReady(int64_t now_ms) {
  const NetMetrics& metrics = NetMetrics::Get();
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure; epoll will re-arm
    }
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      CloseQuietly(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      CloseQuietly(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      CloseQuietly(fd);
      continue;
    }
    Connection conn;
    conn.fd = fd;
    conn.gen = next_gen_++;
    conn.last_active_ms = now_ms;
    connections_.emplace(fd, std::move(conn));
    metrics.connections_total->Increment();
    metrics.connections->Add(1.0);
    open_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void WireServer::ReadReady(Connection& conn, int64_t now_ms) {
  const NetMetrics& metrics = NetMetrics::Get();
  char buf[64 * 1024];
  while (true) {
    const ssize_t got = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn.fd);
      return;
    }
    if (got == 0) {
      CloseConnection(conn.fd);
      return;
    }
    conn.last_active_ms = now_ms;
    metrics.bytes_in->Increment(got);
    if (!conn.reader.Feed(std::string_view(buf, static_cast<size_t>(got)))) {
      // Unframeable flood: bounded cost, then cut off.
      metrics.decode_errors->Increment();
      std::string payload;
      EncodeErrorPayload(0, Status::InvalidArgument("wire: unframed flood"),
                         &payload);
      QueueFrame(conn, FrameType::kError, payload);
      conn.close_after_flush = true;
      FlushWrites(conn);
      return;
    }
    while (true) {
      Result<std::optional<Frame>> next = conn.reader.Next();
      if (!next.ok()) {
        // Frame-level corruption: the stream may be misaligned, so answer
        // once (best effort) and close.
        metrics.decode_errors->Increment();
        std::string payload;
        EncodeErrorPayload(0, next.status(), &payload);
        QueueFrame(conn, FrameType::kError, payload);
        conn.close_after_flush = true;
        FlushWrites(conn);
        return;
      }
      if (!next->has_value()) break;
      HandleFrame(conn, **next);
    }
  }
}

void WireServer::HandleFrame(Connection& conn, const Frame& frame) {
  const NetMetrics& metrics = NetMetrics::Get();
  metrics.frames_in->Increment();
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  if (frame.type != FrameType::kRequest) {
    // Clients send requests; anything else is a protocol violation in a
    // well-formed frame — answerable in-band, stream still aligned.
    metrics.decode_errors->Increment();
    std::string payload;
    EncodeErrorPayload(
        0, Status::InvalidArgument("wire: client sent non-request frame"),
        &payload);
    QueueFrame(conn, FrameType::kError, payload);
    return;
  }
  // The receive half of the wire span pair: decode + admission. It needs
  // an explicit root — the epoll thread has no ambient request context —
  // and the request's deterministic trace id does not exist until Submit
  // admits it, so the span roots an ad-hoc transport trace (the minted-id
  // pattern; ids are masked as measurements in canonical comparisons) and
  // links the request id as an arg once assigned. The execute half of the
  // request's own trace is parented by Submit.
  obs::ScopedSpan recv_span("net.recv", "net",
                            obs::Tracer::Root(obs::Tracer::MintTraceId()));
  Result<WireRequest> decoded = DecodeRequestPayload(frame.payload);
  if (!decoded.ok()) {
    recv_span.Detail("decode_error");
    metrics.decode_errors->Increment();
    std::string payload;
    EncodeErrorPayload(0, decoded.status(), &payload);
    QueueFrame(conn, FrameType::kError, payload);
    return;
  }
  WireRequest& wire = *decoded;
  recv_span.Detail(serve::RequestKindName(wire.request.kind));
  if (wire.request.issue_time > now_) now_ = wire.request.issue_time;
  uint64_t service_id = 0;
  std::optional<serve::Response> immediate =
      service_->Submit(std::move(wire.request), &service_id);
  recv_span.Arg("request_id", static_cast<int64_t>(service_id));
  if (!immediate.has_value()) {
    pending_[service_id] =
        PendingReply{conn.fd, conn.gen, wire.client_id};
    return;
  }
  if (immediate->outcome == serve::ServeOutcome::kShed) {
    // Backpressure maps to a first-class wire reply: tiny frame, the
    // service's deterministic retry_after hint, no connection penalty.
    metrics.shed_replies->Increment();
    std::string payload;
    EncodeShedPayload(wire.client_id, immediate->retry_after_seconds,
                      &payload);
    QueueFrame(conn, FrameType::kShed, payload);
    return;
  }
  std::string payload;
  EncodeResponsePayload(wire.client_id, *immediate, &payload);
  QueueFrame(conn, FrameType::kResponse, payload);
}

void WireServer::DrainPending() {
  const std::vector<serve::Response> responses = service_->Drain(now_);
  for (const serve::Response& response : responses) {
    auto it = pending_.find(response.id);
    if (it == pending_.end()) continue;  // another caller's request
    const PendingReply reply = it->second;
    pending_.erase(it);
    auto conn_it = connections_.find(reply.fd);
    if (conn_it == connections_.end() || conn_it->second.gen != reply.gen) {
      continue;  // connection closed while the request was queued
    }
    // The send half joins the request's own deterministic trace as a
    // second root: submit -> execute -> ... -> net.send reads as one
    // request tree in the Perfetto view.
    obs::ScopedSpan send_span(
        "net.send", "net",
        obs::Tracer::Root(serve::FleetService::TraceIdFor(response.id)));
    send_span.Detail(serve::ServeOutcomeName(response.outcome));
    std::string payload;
    EncodeResponsePayload(reply.client_id, response, &payload);
    QueueFrame(conn_it->second, FrameType::kResponse, payload);
  }
}

void WireServer::FlushAll() {
  // Two passes because FlushWrites may close (erase) a connection, which
  // would invalidate a live map iterator.
  std::vector<int> dirty;
  for (const auto& [fd, conn] : connections_) {
    if (conn.out_off < conn.outbuf.size() || conn.close_after_flush) {
      dirty.push_back(fd);
    }
  }
  for (int fd : dirty) {
    auto it = connections_.find(fd);
    if (it != connections_.end()) FlushWrites(it->second);
  }
}

void WireServer::QueueFrame(Connection& conn, FrameType type,
                            std::string_view payload) {
  NetMetrics::Get().frames_out->Increment();
  conn.outbuf += EncodeFrame(type, payload);
}

void WireServer::FlushWrites(Connection& conn) {
  const NetMetrics& metrics = NetMetrics::Get();
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t sent =
        ::send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn.fd);
      return;
    }
    metrics.bytes_out->Increment(sent);
    conn.out_off += static_cast<size_t>(sent);
  }
  if (conn.out_off >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      CloseConnection(conn.fd);
      return;
    }
    if (conn.epollout_armed) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = conn.fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.epollout_armed = false;
    }
    return;
  }
  // Reclaim the flushed prefix once it dominates the buffer.
  if (conn.out_off > conn.outbuf.size() / 2) {
    conn.outbuf.erase(0, conn.out_off);
    conn.out_off = 0;
  }
  if (conn.outbuf.size() - conn.out_off > options_.max_write_buffer_bytes) {
    // The peer reads slower than it submits; buffering without bound is
    // the one thing the front door must never do.
    metrics.overflow_closes->Increment();
    CloseConnection(conn.fd);
    return;
  }
  if (!conn.epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = conn.fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.epollout_armed = true;
  }
}

void WireServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  CloseQuietly(fd);
  connections_.erase(it);
  NetMetrics::Get().connections->Add(-1.0);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  // Pending replies to this connection stay in the map; the routing step
  // discards them by generation mismatch / missing fd.
}

void WireServer::SweepIdle(int64_t now_ms) {
  if (options_.idle_timeout_ms <= 0) return;
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    if (now_ms - conn.last_active_ms >= options_.idle_timeout_ms) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    NetMetrics::Get().idle_closes->Increment();
    CloseConnection(fd);
  }
}

}  // namespace net
}  // namespace imcf
