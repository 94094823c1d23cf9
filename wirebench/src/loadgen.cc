#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace wirebench {
namespace {

constexpr std::size_t kRecordedStreamCap = 1u << 20;
constexpr std::int64_t kDrainTimeoutNs = 30'000'000'000;
constexpr std::int64_t kIdlePollNs = 10'000'000;
constexpr std::int64_t kWakeupSlackNs = 2'000'000;

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

// Blocking send/receive, used only during the handshake.
Status SendAll(int fd, const Bytes& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

StatusOr<net::Frame> ReadFrameBlocking(int fd, net::FrameReassembler& rx) {
  std::uint8_t buf[4096];
  for (;;) {
    if (auto frame = rx.Next()) return std::move(*frame);
    if (!rx.status().ok()) return rx.status();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return Status::DataLoss("server closed during handshake");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (auto fed = rx.Feed(buf, static_cast<std::size_t>(n)); !fed.ok()) {
      return fed;
    }
  }
}

}  // namespace

LoadGen::LoadGen(const WorkloadSpec& spec, Timeline* timeline)
    : spec_(spec), tl_(timeline), recv_buffer_(256u << 10) {
  names_.reserve(spec.users);
  for (std::uint32_t u = 0; u < spec.users; ++u) names_.push_back(UserName(u));
  last_artifact_.resize(spec.users);
  last_hash_.assign(spec.users, 0);
}

LoadGen::~LoadGen() { Close(); }

void LoadGen::Close() {
  for (auto& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }
}

Status LoadGen::Connect(std::uint16_t port, std::uint64_t fingerprint) {
  for (int c = 0; c < kConnections; ++c) {
    Conn& conn = conns_[c];
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return Errno("socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      return Errno("connect");
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Bytes hello;
    net::AppendHello(hello, {net::kProtocolVersion, fingerprint, {}});
    if (auto s = SendAll(conn.fd, hello); !s.ok()) return s;
    auto reply = ReadFrameBlocking(conn.fd, conn.rx);
    if (!reply.ok()) return reply.status();
    if (reply->type != net::FrameType::kHello) {
      return Status::FailedPrecondition("handshake refused");
    }
    auto decoded = net::DecodeHello(reply->payload);
    if (!decoded.ok()) return decoded.status();
    if (!decoded->nonce.empty()) {
      if (!spec_.auth) return Status::FailedPrecondition("unexpected auth");
      net::AuthFrame auth;
      auth.principal = Principal(c);
      auth.tag = net::AuthTag(AuthSecret(), decoded->nonce, auth.principal);
      Bytes out;
      net::AppendAuth(out, auth);
      if (auto s = SendAll(conn.fd, out); !s.ok()) return s;
      auto ok = ReadFrameBlocking(conn.fd, conn.rx);
      if (!ok.ok()) return ok.status();
      if (ok->type != net::FrameType::kAuthOk) {
        return Status::PermissionDenied("auth refused");
      }
    }
    if (::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL) | O_NONBLOCK) <
        0) {
      return Errno("fcntl");
    }
    fds_[c].fd = conn.fd;
    fds_[c].events = POLLIN;
  }
  return Status::Ok();
}

std::size_t LoadGen::ResidentBytes() const {
  std::size_t bytes = tl_->log.size() * sizeof(LogEntry) +
                      tl_->reduces.size() * sizeof(ReduceRecord) +
                      tl_->recorded_stream.capacity() +
                      recv_buffer_.capacity() +
                      names_.size() * sizeof(std::string) +
                      last_artifact_.size() * sizeof(Bytes) +
                      last_hash_.size() * sizeof(std::uint64_t) +
                      retry_queue_.capacity() * sizeof(std::uint32_t);
  for (const auto& r : tl_->reduces) {
    bytes += r.artifact_wire.capacity() +
             r.reply_segments.capacity() * sizeof(roadnet::SegmentId);
  }
  for (const auto& artifact : last_artifact_) bytes += artifact.capacity();
  for (const auto& conn : conns_) bytes += conn.out.capacity();
  return bytes;
}

StatusOr<std::uint32_t> LoadGen::Send(const Request& r, std::int64_t due_ns,
                                      Phase phase) {
  const auto seq = static_cast<std::uint32_t>(tl_->log.size());
  if (seq == net::kConnectionSeq) return Status::OutOfRange("seq space");
  LogEntry entry;
  entry.user = r.user;
  entry.segment = r.segment;
  entry.now_s = r.now_s;
  entry.kind = r.kind;
  entry.phase = phase;
  entry.due_ns = due_ns;
  const int c = static_cast<int>(r.user % kConnections);
  Conn& conn = conns_[c];
  if (r.kind == Kind::kUpdate) {
    const std::size_t before = conn.out.size();
    net::AppendPositionUpdate(conn.out, seq, names_[r.user], r.now_s,
                              roadnet::SegmentId{r.segment});
    if (tl_->record_stream && c == 0 &&
        tl_->recorded_stream.size() < kRecordedStreamCap) {
      tl_->recorded_stream.insert(tl_->recorded_stream.end(),
                                  conn.out.begin() + before, conn.out.end());
    }
  } else {
    const Bytes& artifact = last_artifact_[r.user];
    if (artifact.empty()) {
      return Status::FailedPrecondition("reduce before first artifact");
    }
    auto decoded = core::DecodeArtifact(artifact);
    if (!decoded.ok()) return decoded.status();
    ReduceRecord record;
    record.seq = seq;
    record.epoch = EpochOfContext(decoded->context);
    record.artifact_wire = artifact;
    const auto keys = net::DeterministicKeyProvider(
        kKeySeedBase, names_[r.user],
        ServeProfile().num_levels())(record.epoch);
    net::ReduceRequestFrame request;
    request.seq = seq;
    request.target_level = 0;
    for (int level = 1; level <= keys.num_levels(); ++level) {
      request.granted_keys.emplace(level, keys.LevelKey(level));
    }
    request.artifact_wire = artifact;
    net::AppendReduceRequest(conn.out, request);
    entry.segment = static_cast<std::uint32_t>(tl_->reduces.size());
    tl_->reduces.push_back(std::move(record));
  }
  entry.sent_ns = NowNs();
  tl_->log.push_back(entry);
  ++conn.in_flight;
  ++outstanding_;
  return seq;
}

Status LoadGen::Flush(Conn& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_offset,
               conn.out.size() - conn.out_offset, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return Errno("send");
    }
    conn.out_offset += static_cast<std::size_t>(n);
  }
  if (conn.out_offset == conn.out.size()) {
    conn.out.clear();
    conn.out_offset = 0;
  } else if (conn.out_offset > (1u << 20)) {
    conn.out.erase(conn.out.begin(),
                   conn.out.begin() + static_cast<std::ptrdiff_t>(
                                          conn.out_offset));
    conn.out_offset = 0;
  }
  return Status::Ok();
}

Status LoadGen::Complete(int c, std::uint32_t seq, Kind kind,
                         std::int64_t now, std::uint8_t code) {
  if (seq >= tl_->log.size()) {
    return Status::DataLoss("reply for unknown seq " + std::to_string(seq));
  }
  LogEntry& e = tl_->log[seq];
  if (e.done_ns != 0 || e.kind != kind ||
      static_cast<int>(e.user % kConnections) != c) {
    return Status::DataLoss("misrouted reply for seq " + std::to_string(seq));
  }
  e.done_ns = now;
  e.code = code;
  --conns_[c].in_flight;
  --outstanding_;
  if (in_warmup_ && code != 0) retry_queue_.push_back(seq);
  return Status::Ok();
}

Status LoadGen::Handle(int c, const net::Frame& frame, std::int64_t now) {
  switch (frame.type) {
    case net::FrameType::kArtifactReply: {
      auto reply = net::DecodeArtifactReply(frame.payload);
      if (!reply.ok()) return reply.status();
      const auto code = static_cast<std::uint8_t>(reply->status.code());
      if (auto s = Complete(c, reply->seq, Kind::kUpdate, now, code);
          !s.ok()) {
        return s;
      }
      if (code == 0) {
        LogEntry& e = tl_->log[reply->seq];
        const Bytes& wire = reply->artifact_wire;
        e.hash = ArtifactHash(wire.data(), wire.size());
        e.length = static_cast<std::uint32_t>(wire.size());
        if (e.hash != last_hash_[e.user]) {
          last_hash_[e.user] = e.hash;
          last_artifact_[e.user] = std::move(reply->artifact_wire);
        }
      }
      return Status::Ok();
    }
    case net::FrameType::kReduceReply: {
      auto reply = net::DecodeReduceReply(frame.payload);
      if (!reply.ok()) return reply.status();
      const auto code = static_cast<std::uint8_t>(reply->status.code());
      if (auto s = Complete(c, reply->seq, Kind::kReduce, now, code);
          !s.ok()) {
        return s;
      }
      tl_->reduces[tl_->log[reply->seq].segment].reply_segments =
          std::move(reply->segments);
      return Status::Ok();
    }
    case net::FrameType::kError: {
      auto error = net::DecodeError(frame.payload);
      if (!error.ok()) return error.status();
      if (error->seq == net::kConnectionSeq || error->seq >= tl_->log.size()) {
        return Status::DataLoss("connection error: " + error->message);
      }
      const Kind kind = tl_->log[error->seq].kind;
      return Complete(c, error->seq, kind, now,
                      static_cast<std::uint8_t>(error->code));
    }
    default:
      return Status::DataLoss("unexpected frame type");
  }
}

Status LoadGen::Read(int c) {
  Conn& conn = conns_[c];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, recv_buffer_.data(), recv_buffer_.size(),
                             MSG_DONTWAIT);
    if (n == 0) return Status::DataLoss("server closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    const std::int64_t now = NowNs();
    if (auto fed = conn.rx.Feed(recv_buffer_.data(),
                                static_cast<std::size_t>(n));
        !fed.ok()) {
      return fed;
    }
    while (auto frame = conn.rx.Next()) {
      if (auto s = Handle(c, *frame, now); !s.ok()) return s;
    }
    if (static_cast<std::size_t>(n) < recv_buffer_.size()) return Status::Ok();
  }
}

Status LoadGen::Pump(std::int64_t timeout_ns) {
  for (int c = 0; c < kConnections; ++c) {
    if (auto s = Flush(conns_[c]); !s.ok()) return s;
    fds_[c].events = static_cast<short>(
        POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
    fds_[c].revents = 0;
  }
  const timespec timeout{static_cast<time_t>(timeout_ns / 1'000'000'000),
                         static_cast<long>(timeout_ns % 1'000'000'000)};
  const int ready = ::ppoll(fds_, kConnections, &timeout, nullptr);
  if (ready < 0) {
    if (errno == EINTR) return Status::Ok();
    return Errno("ppoll");
  }
  for (int c = 0; c < kConnections; ++c) {
    if (fds_[c].revents & (POLLIN | POLLHUP | POLLERR)) {
      if (auto s = Read(c); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status LoadGen::DrainAll(std::int64_t deadline_ns) {
  while (outstanding_ > 0) {
    if (NowNs() > deadline_ns) {
      return Status::DataLoss(std::to_string(outstanding_) +
                              " replies missing after the drain timeout");
    }
    if (auto s = Pump(kIdlePollNs); !s.ok()) return s;
  }
  return Status::Ok();
}

Status LoadGen::Warmup(const std::vector<Request>& requests,
                       std::uint64_t* retries) {
  in_warmup_ = true;
  std::size_t next = 0;
  const std::int64_t deadline = NowNs() + 120'000'000'000;
  while (next < requests.size() || !retry_queue_.empty() || outstanding_ > 0) {
    if (NowNs() > deadline) return Status::DataLoss("warm-up did not finish");
    bool sent = true;
    while (sent) {
      sent = false;
      if (!retry_queue_.empty()) {
        const LogEntry failed = tl_->log[retry_queue_.back()];
        if (conns_[failed.user % kConnections].in_flight <
            kWindowPerConn) {
          retry_queue_.pop_back();
          Request r;
          r.user = failed.user;
          r.segment = failed.segment;
          r.now_s = failed.now_s;
          auto seq = Send(r, NowNs(), kWarmup);
          if (!seq.ok()) return seq.status();
          ++*retries;
          sent = true;
        }
      } else if (next < requests.size() &&
                 conns_[requests[next].user % kConnections].in_flight <
                     kWindowPerConn) {
        auto seq = Send(requests[next], NowNs(), kWarmup);
        if (!seq.ok()) return seq.status();
        ++next;
        sent = true;
      }
    }
    if (auto s = Pump(kIdlePollNs); !s.ok()) return s;
  }
  in_warmup_ = false;
  return Status::Ok();
}

Status LoadGen::RunOpen(Stream& stream, double seconds) {
  const std::int64_t horizon = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t t0 = NowNs() + 1'000'000;
  tl_->open_t0_ns = t0;
  bool schedule_done = false;
  std::int64_t schedule_end = 0;
  for (;;) {
    std::int64_t now = NowNs();
    int sent = 0;
    while (!schedule_done) {
      const std::int64_t offset = stream.PeekDueNs();
      if (offset >= horizon) {
        schedule_done = true;
        schedule_end = now;
        tl_->backlog_at_schedule_end = outstanding_;
        break;
      }
      if (t0 + offset > now) break;
      const Request r = stream.Next();
      const std::int64_t due = t0 + r.due_offset_ns;
      if (auto seq = Send(r, due, kOpen); !seq.ok()) return seq.status();
      if (++sent % 64 == 0) now = NowNs();
    }
    if (schedule_done) {
      if (outstanding_ == 0) break;
      if (now - schedule_end > kDrainTimeoutNs) {
        return Status::DataLoss(std::to_string(outstanding_) +
                                " replies missing after the drain timeout");
      }
    }
    // Sleep until shortly before the next request is due, then spin: a
    // sleeping generator reads replies late by its wake-up latency.
    std::int64_t timeout_ns = kIdlePollNs;
    if (!schedule_done) {
      const std::int64_t wait = t0 + stream.PeekDueNs() - NowNs();
      timeout_ns = std::clamp<std::int64_t>(wait - kWakeupSlackNs, 0,
                                            kIdlePollNs);
    }
    if (auto s = Pump(timeout_ns); !s.ok()) return s;
  }
  const std::int64_t end = NowNs();
  tl_->drain_ms = static_cast<double>(end - schedule_end) / 1e6;
  return Status::Ok();
}

Status LoadGen::RunClosed(Stream& stream, double seconds) {
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  bool have_pending = false;
  Request pending;
  while (NowNs() < end) {
    for (;;) {
      if (!have_pending) {
        pending = stream.Next();
        have_pending = true;
      }
      if (conns_[pending.user % kConnections].in_flight >=
          kWindowPerConn) {
        break;
      }
      if (auto seq = Send(pending, NowNs(), kClosed); !seq.ok()) {
        return seq.status();
      }
      have_pending = false;
    }
    if (auto s = Pump(1'000'000); !s.ok()) return s;
  }
  tl_->closed_start_ns = start;
  tl_->closed_end_ns = end;
  return DrainAll(NowNs() + kDrainTimeoutNs);
}

}  // namespace wirebench
