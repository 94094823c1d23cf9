// The load generator: one thread, 4 nonblocking loopback connections,
// frames built and parsed with the public net/frame_codec API.
//
// A user always travels on connection `user % 4`, so its updates reach
// the server in the order they were generated. Every request is logged
// under its wire seq (= its index in Timeline::log); replies are matched
// by seq, and a reply for an unknown, already-answered or foreign seq is
// a misroute that fails the run.
#pragma once

#include <poll.h>

#include "bench.h"

namespace wirebench {

class LoadGen {
 public:
  LoadGen(const WorkloadSpec& spec, Timeline* timeline);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Connects kConnections sockets and runs the HELLO (+ AUTH) handshake.
  Status Connect(std::uint16_t port, std::uint64_t fingerprint);
  // Every user's first update, closed loop; failed updates are retried
  // until each user holds an artifact.
  Status Warmup(const std::vector<Request>& requests,
                std::uint64_t* retries);
  // Open loop: requests leave when due; each is timed from its due time.
  Status RunOpen(Stream& stream, double seconds);
  // Closed loop: a fixed window of requests in flight per connection.
  Status RunClosed(Stream& stream, double seconds);
  void Close();
  // Bytes the generator holds in this process: its request log, reduce
  // records, per-user last artifacts and I/O buffers. rss_mb leaves
  // them out, so that it measures the serving stack.
  std::size_t ResidentBytes() const;

 private:
  struct Conn {
    int fd = -1;
    Bytes out;
    std::size_t out_offset = 0;
    net::FrameReassembler rx;
    int in_flight = 0;
  };

  // Logs and frames one request; returns its seq.
  StatusOr<std::uint32_t> Send(const Request& r, std::int64_t due_ns,
                               Phase phase);
  // Writes pending bytes, polls up to `timeout_ns`, reads and handles
  // every complete reply.
  Status Pump(std::int64_t timeout_ns);
  Status Flush(Conn& conn);
  Status Read(int c);
  Status Handle(int c, const net::Frame& frame, std::int64_t now);
  Status Complete(int c, std::uint32_t seq, Kind kind, std::int64_t now,
                  std::uint8_t code);
  Status DrainAll(std::int64_t deadline_ns);

  WorkloadSpec spec_;
  Timeline* tl_;
  Conn conns_[kConnections];
  pollfd fds_[kConnections];
  std::vector<std::string> names_;
  std::vector<Bytes> last_artifact_;
  std::vector<std::uint64_t> last_hash_;
  std::uint64_t outstanding_ = 0;
  // Warm-up bookkeeping: seq -> warm-up request index (failed ones retry).
  std::vector<std::uint32_t> retry_queue_;
  bool in_warmup_ = false;
  std::vector<std::uint8_t> recv_buffer_;
};

}  // namespace wirebench
