#include "net/tcp_network.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "kompics/telemetry.hpp"
#include "net/compression.hpp"
#include "net/serialization.hpp"

namespace kompics::net {

namespace {

constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagTraced = 0x02;  ///< TraceTrailer appended after the body

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpNetwork::TcpNetwork() {
  subscribe<Init>(control(), [this](const Init& init) { boot(init.self, init.options); });
  subscribe<Stop>(control(), [this](const Stop&) { shutdown_io(); });
  subscribe<Message>(network_, [this](const Message& m) { post_send(m); });
}

TcpNetwork::~TcpNetwork() { shutdown_io(); }

void TcpNetwork::boot(Address self, const Options& opts) {
  self_ = self;
  options_ = opts;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(self.host);
  addr.sin_port = htons(self.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bind() failed for " + self.to_string() + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.listen_backlog) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("listen() failed");
  }
  set_nonblocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  io_stop_.store(false);
  io_running_.store(true);
  io_thread_ = std::thread([this] { io_main(); });
}

void TcpNetwork::shutdown_io() {
  if (!io_running_.exchange(false)) return;
  io_stop_.store(true);
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  out_by_peer_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
}

void TcpNetwork::wake_io() {
  if (wake_fd_ >= 0) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

Bytes TcpNetwork::frame_message(const Message& m, const TraceTrailer* trailer, bool* failed) {
  *failed = false;
  Bytes body;
  try {
    SerializationRegistry::instance().serialize(m, body);
  } catch (const std::exception& e) {
    *failed = true;
    trigger(make_event<SendFailed>(current_event_as<Message>(), e.what()), netctl_);
    return {};
  }
  std::uint8_t flags = 0;
  if (options_.compress && body.size() >= options_.compress_threshold) {
    Bytes packed;
    kz::compress(body, packed);
    if (packed.size() < body.size()) {
      body = std::move(packed);
      flags = kFlagCompressed;
    }
  }
  // Traced messages carry a fixed trailer after the (possibly compressed)
  // body; untraced frames are byte-identical to the pre-tracing format.
  const std::size_t trailer_bytes = trailer != nullptr ? TraceTrailer::kWireSize : 0;
  if (trailer != nullptr) flags |= kFlagTraced;
  Bytes frame;
  frame.reserve(body.size() + 5 + trailer_bytes);
  BufferWriter w(frame);
  w.u32(static_cast<std::uint32_t>(body.size() + 1 + trailer_bytes));
  w.u8(flags);
  w.raw(body.data(), body.size());
  if (trailer != nullptr) trailer->write(w);
  return frame;
}

void TcpNetwork::post_send(const Message& m) {
  if (!io_running_.load(std::memory_order_acquire)) {
    trigger(make_event<SendFailed>(current_event_as<Message>(), "network not started"), netctl_);
    return;
  }
  OutFrame of;
  TraceTrailer trailer;
  const TraceTrailer* trailer_ptr = nullptr;
  telemetry::Telemetry& tel = runtime().telemetry();
  const std::uint64_t word = m.kompics_trace_word();
  if (word != 0 && tel.tracing_enabled()) {
    // Mint the net-send span up front so its id can travel in the trailer;
    // parent it under the executing handler's span when that handler belongs
    // to the same trace (the common case: a handler triggering the send).
    of.trace_id = telemetry::trace_of_word(word);
    of.send_span = tel.alloc_span_id();
    const auto active = tel.active_span();
    of.parent_span = active.trace_id == of.trace_id ? active.span_id
                                                    : telemetry::parent_of_word(word);
    of.enqueue_ns = telemetry::now_ns();
    trailer.trace_id = of.trace_id;
    trailer.send_span = of.send_span;
    trailer.send_ts_ns = of.enqueue_ns;
    trailer_ptr = &trailer;
  }
  bool failed = false;
  of.bytes = frame_message(m, trailer_ptr, &failed);
  if (failed) {
    counters_.send_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  queued_frames_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> g(out_mu_);
    pending_out_.emplace_back(m.destination(), std::move(of));
  }
  wake_io();
}

// ---------------------------------------------------------------------------
// I/O thread
// ---------------------------------------------------------------------------

void TcpNetwork::io_main() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!io_stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        io_handle_listener();
      } else if (fd == wake_fd_) {
        io_handle_wake();
      } else {
        io_handle_conn(fd, events[i].events);
      }
    }
  }
}

void TcpNetwork::io_handle_listener() {
  while (true) {
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) break;
    set_nonblocking(fd);
    set_nodelay(fd);
    Conn c;
    c.fd = fd;
    c.connected = true;
    conns_[fd] = std::move(c);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd].registered = true;
    counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpNetwork::io_handle_wake() {
  std::uint64_t buf;
  while (::read(wake_fd_, &buf, sizeof(buf)) > 0) {
  }
  io_process_outgoing_queue();
}

void TcpNetwork::io_process_outgoing_queue() {
  std::vector<std::pair<Address, OutFrame>> batch;
  {
    std::lock_guard<std::mutex> g(out_mu_);
    batch.swap(pending_out_);
  }
  for (auto& [dest, frame] : batch) {
    Conn& c = io_conn_for(dest);
    if (c.fd < 0) {
      trigger(make_event<SendFailed>(nullptr, "connect to " + dest.to_string() + " failed"),
              netctl_);
      queued_frames_.fetch_sub(1, std::memory_order_relaxed);
      counters_.send_failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    c.outbox.push_back(std::move(frame));
    if (c.connected) io_flush_writes(c);
  }
}

TcpNetwork::Conn& TcpNetwork::io_conn_for(const Address& dest) {
  static Conn invalid;
  auto it = out_by_peer_.find(dest);
  if (it != out_by_peer_.end()) return conns_[it->second];

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    invalid = Conn{};
    return invalid;
  }
  set_nonblocking(fd);
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(dest.host);
  addr.sin_port = htons(dest.port);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    invalid = Conn{};
    return invalid;
  }
  Conn c;
  c.fd = fd;
  c.peer = dest;
  c.connected = (rc == 0);
  conns_[fd] = std::move(c);
  out_by_peer_[dest] = fd;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conns_[fd].registered = true;
  const bool reconnect = seen_peers_.count(dest) != 0;
  seen_peers_[dest] = true;
  counters_.connections_opened.fetch_add(1, std::memory_order_relaxed);
  if (reconnect) counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
  return conns_[fd];
}

void TcpNetwork::io_handle_conn(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;

  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    io_close_conn(fd, "peer error/hangup");
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!c.connected) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        io_close_conn(fd, "connect failed");
        return;
      }
      c.connected = true;
    }
    io_flush_writes(c);
    if (conns_.count(fd) == 0) return;  // closed during flush
  }
  if ((events & EPOLLIN) != 0) io_read(c);
}

void TcpNetwork::io_flush_writes(Conn& c) {
  while (!c.outbox.empty()) {
    const OutFrame& front = c.outbox.front();
    const ssize_t n = ::send(c.fd, front.bytes.data() + c.out_offset,
                             front.bytes.size() - c.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      io_close_conn(c.fd, "send failed");
      return;
    }
    counters_.bytes_sent.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    c.out_offset += static_cast<std::size_t>(n);
    if (c.out_offset == front.bytes.size()) {
      if (front.trace_id != 0) {
        // The frame fully left the socket: close the net-send span. Its
        // duration is enqueue-to-last-byte, i.e. send-queue wait + write.
        const std::uint64_t now = telemetry::now_ns();
        const std::string hop = "net.send -> " + c.peer.to_string();
        runtime().telemetry().record_net_span(
            telemetry::SpanKind::kNetSend, front.trace_id, front.send_span, front.parent_span,
            self_.to_string().c_str(), hop.c_str(),
            static_cast<std::uint32_t>(front.bytes.size()), 0, front.enqueue_ns,
            now - front.enqueue_ns);
      }
      queued_frames_.fetch_sub(1, std::memory_order_relaxed);
      c.outbox.pop_front();
      c.out_offset = 0;
      counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Keep EPOLLOUT armed only while there is pending output.
  epoll_event ev{};
  ev.events = EPOLLIN | (c.outbox.empty() ? 0u : static_cast<std::uint32_t>(EPOLLOUT));
  ev.data.fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void TcpNetwork::io_read(Conn& c) {
  std::uint8_t buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      io_close_conn(c.fd, "peer closed");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      io_close_conn(c.fd, "recv failed");
      return;
    }
    counters_.bytes_received.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    c.inbox.insert(c.inbox.end(), buf, buf + n);
    // Extract complete frames.
    std::size_t pos = 0;
    while (c.inbox.size() - pos >= 4) {
      BufferReader header(c.inbox.data() + pos, 4);
      const std::uint32_t frame_len = header.u32();
      if (frame_len == 0 || frame_len > kMaxFrame) {
        io_close_conn(c.fd, "bad frame length");
        return;
      }
      if (c.inbox.size() - pos - 4 < frame_len) break;
      const std::uint8_t* body = c.inbox.data() + pos + 4;
      try {
        const std::uint8_t flags = body[0];
        std::size_t payload_len = frame_len - 1;
        TraceTrailer trailer;
        bool traced = false;
        if ((flags & kFlagTraced) != 0) {
          // The trailer sits after the (possibly compressed) body, inside
          // the frame length, so it is read before any decompression.
          if (payload_len < TraceTrailer::kWireSize) {
            io_close_conn(c.fd, "bad trace trailer");
            return;
          }
          payload_len -= TraceTrailer::kWireSize;
          BufferReader tr(body + 1 + payload_len, TraceTrailer::kWireSize);
          trailer = TraceTrailer::read(tr);
          traced = trailer.trace_id != 0;
        }
        MessagePtr msg;
        if ((flags & kFlagCompressed) != 0) {
          const Bytes plain = kz::decompress(body + 1, payload_len);
          msg = SerializationRegistry::instance().deserialize(plain);
        } else {
          BufferReader r(body + 1, payload_len);
          msg = SerializationRegistry::instance().deserialize(r);
        }
        counters_.messages_received.fetch_add(1, std::memory_order_relaxed);
        telemetry::Telemetry& tel = runtime().telemetry();
        if (traced && tel.tracing_enabled()) {
          // Continue the sender's trace: a local net-recv span bridges the
          // wire hop, and the message is stamped so the receiving handler
          // parents under it. link_delta is local-now minus the sender's
          // send stamp — wire latency plus inter-node clock skew.
          const std::uint32_t recv_span = tel.alloc_span_id();
          const std::uint64_t now = telemetry::now_ns();
          const std::int64_t delta = static_cast<std::int64_t>(now - trailer.send_ts_ns);
          const std::uint64_t wire_ns = delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
          const std::string hop = "net.recv <- " + msg->source().to_string();
          tel.record_net_span(telemetry::SpanKind::kNetRecv, trailer.trace_id, recv_span,
                              trailer.send_span, self_.to_string().c_str(), hop.c_str(),
                              4 + frame_len, delta, now - wire_ns, wire_ns);
          msg->kompics_stamp_trace(
              telemetry::pack_trace_word(trailer.trace_id, recv_span));
        }
        trigger(msg, network_);
      } catch (const std::exception& e) {
        io_close_conn(c.fd, "frame decode failed");
        return;
      }
      pos += 4 + frame_len;
    }
    if (pos > 0) c.inbox.erase(c.inbox.begin(), c.inbox.begin() + static_cast<long>(pos));
  }
}

void TcpNetwork::io_close_conn(int fd, const char* reason) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  const Conn& c = it->second;
  if (!c.outbox.empty()) {
    queued_frames_.fetch_sub(c.outbox.size(), std::memory_order_relaxed);
  }
  if (c.peer.valid()) {
    out_by_peer_.erase(c.peer);
    if (!c.outbox.empty()) {
      trigger(make_event<SendFailed>(nullptr, std::string(reason) + " (" +
                                                  std::to_string(c.outbox.size()) +
                                                  " frames dropped)"),
              netctl_);
    }
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(it);
}

TcpNetwork::Counters TcpNetwork::counters() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  return {counters_.messages_sent.load(kRelaxed),      counters_.messages_received.load(kRelaxed),
          counters_.bytes_sent.load(kRelaxed),         counters_.bytes_received.load(kRelaxed),
          counters_.connections_opened.load(kRelaxed), counters_.connections_accepted.load(kRelaxed),
          counters_.send_failures.load(kRelaxed),      counters_.reconnects.load(kRelaxed)};
}

std::vector<std::pair<std::string, std::uint64_t>> TcpNetwork::metric_samples() const {
  const Counters c = counters();
  return {{"tcp_messages_sent_total", c.messages_sent},
          {"tcp_messages_received_total", c.messages_received},
          {"tcp_bytes_sent_total", c.bytes_sent},
          {"tcp_bytes_received_total", c.bytes_received},
          {"tcp_connections_opened_total", c.connections_opened},
          {"tcp_connections_accepted_total", c.connections_accepted},
          {"tcp_send_failures_total", c.send_failures},
          {"tcp_reconnects_total", c.reconnects},
          {"tcp_send_queue_depth", queued_frames_.load(std::memory_order_relaxed)}};
}

}  // namespace kompics::net
