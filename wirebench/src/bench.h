// Shared declarations of the wire-level serving benchmark.
//
// The benchmark drives the real front door (net::NetServer over a
// ContinuousSessionPool over an AnonymizationServer, built the way
// `rcloak_tool serve` builds them) from one single-threaded load generator
// in the same process, over 4 nonblocking loopback connections. It only
// calls public library APIs; nothing under src/ is modified.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/reversecloak.h"
#include "net/net_server.h"
#include "roadnet/road_network.h"
#include "server/anonymization_server.h"
#include "server/continuous_session_pool.h"
#include "util/stats.h"
#include "util/status.h"

namespace wirebench {

using namespace rcloak;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The serve profile, validity level and key schedule (NetServerOptions
// defaults, which `rcloak_tool serve` runs with).
inline core::PrivacyProfile ServeProfile() {
  return core::PrivacyProfile({{8, 3, 1e9}, {25, 8, 1e9}});
}
inline constexpr std::uint64_t kKeySeedBase = 50000;
inline constexpr int kConnections = 4;
// Requests in flight per connection in the closed loop and the warm-up.
inline constexpr int kWindowPerConn = 256;
inline constexpr std::uint64_t kMapSeed = 42;

std::string UserName(std::uint32_t user);

// The epoch in an artifact's public context ("<user>/epoch-<n>", as
// core::ContinuousPolicy names it): the key schedule index a reduce
// needs. 0 when the context carries none.
std::uint64_t EpochOfContext(std::string_view context);

// util::Samples::Percentile, or 0 for an empty sample: every metric must
// print as a number.
inline double PercentileOrZero(const Samples& samples, double q) {
  return samples.empty() ? 0.0 : samples.Percentile(q);
}

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  std::string name;
  std::uint32_t users = 0;
  // Open-loop schedule: a uniform rate (requests/s), or, when
  // tick_period_s > 0, one burst of every user per tick period.
  double rate_per_s = 0.0;
  double tick_period_s = 0.0;
  // Per-update probability that a user drifts to an adjacent segment.
  double move_prob = 0.0;
  // Users in the rotating cohort that teleports every tick (1 in N).
  std::uint32_t teleport_every = 0;
  // Share of requests that are level-0 REDUCE_REQUESTs.
  double reduce_share = 0.0;
  // > 0: each request picks its user by Zipf(zipf_s) popularity instead
  // of every user reporting once per simulated second.
  double zipf_s = 0.0;
  bool auth = false;
  // Cold tier: spill file attached (serve --spill, sync writer) under
  // this resident budget.
  bool cold_tier = false;
  std::size_t budget_bytes = 0;
  // Latency limit an update must meet to count toward
  // update_slo_met_share: at or above the p99 on the uniform workloads,
  // one tick on exit_storm. Limits near the body of the
  // distribution moved with host steal; README.md has the measurements.
  double slo_ms = 0.0;
  // Update latencies are summarized per window of due times of this
  // length (one burst on exit_storm); the metrics are the medians of the
  // window percentiles.
  double latency_window_s = 1.0;
};

// cruise / exit_storm / cold_return; false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

enum class Kind : std::uint8_t { kUpdate, kReduce };

struct Request {
  Kind kind = Kind::kUpdate;
  std::uint32_t user = 0;
  std::uint32_t segment = 0;  // updates
  double now_s = 0.0;         // updates
  // Open-loop due time, relative to the start of the schedule.
  std::int64_t due_offset_ns = 0;
};

// Deterministic request stream of one workload: the same seed gives the
// same stream. Reduces are interleaved at reduce_share.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, const roadnet::RoadNetwork& net,
         std::uint64_t seed);
  ~Stream();
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  // Every user's first position (now_s = 0), in user order.
  std::vector<Request> WarmupRequests() const;
  Request Next();
  // Due offset of the request Next() would return.
  std::int64_t PeekDueNs() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// ------------------------------------------------------------- run log

// One request as sent and answered. Indexed by its wire seq.
struct LogEntry {
  std::uint32_t user = 0;
  std::uint32_t segment = 0;
  double now_s = 0.0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;  // framed into the send buffer
  std::int64_t done_ns = 0;  // 0 = no reply yet
  std::uint64_t hash = 0;    // SipHash of the artifact bytes (OK updates)
  std::uint32_t length = 0;
  Kind kind = Kind::kUpdate;
  std::uint8_t code = 0;  // ErrorCode of the reply
  std::uint8_t phase = 0;
};

enum Phase : std::uint8_t { kWarmup = 0, kOpen = 1, kClosed = 2 };

struct ReduceRecord {
  std::uint32_t seq = 0;
  std::uint64_t epoch = 0;
  Bytes artifact_wire;
  std::vector<roadnet::SegmentId> reply_segments;
};

std::uint64_t ArtifactHash(const std::uint8_t* data, std::size_t n);

// ---------------------------------------------------------- the stack

struct SetupTimes {
  double map_s = 0, context_s = 0, start_s = 0, handshake_s = 0,
         warmup_s = 0;
  std::uint64_t warmup_retries = 0;
  double total() const {
    return map_s + context_s + start_s + handshake_s + warmup_s;
  }
};

// The serving stack, assembled as `rcloak_tool serve` assembles it.
struct Stack {
  roadnet::RoadNetwork net;
  std::unique_ptr<server::AnonymizationServer> server;
  std::unique_ptr<server::ContinuousSessionPool> pool;
  std::unique_ptr<net::NetServer> front;
  std::string spill_path;
  ~Stack();
};

Bytes AuthSecret();
std::string Principal(int conn);
roadnet::RoadNetwork BuildMap();
mobility::OccupancySnapshot AllOnesOccupancy(std::size_t segments);
server::SessionPoolOptions PoolOptionsFor(const WorkloadSpec& spec);
// Builds map, context, server, pool (+ spill file) and starts the front
// door; fills the map/context/start times.
Status BuildStack(const WorkloadSpec& spec, const std::string& spill_path,
                  Stack* stack, SetupTimes* times);

// ---------------------------------------------------------- the run log

struct Timeline {
  std::vector<LogEntry> log;
  std::vector<ReduceRecord> reduces;
  // Open-loop run validity.
  std::uint64_t backlog_at_schedule_end = 0;
  double drain_ms = 0.0;
  std::int64_t open_t0_ns = 0;
  std::int64_t closed_start_ns = 0;
  std::int64_t closed_end_ns = 0;
  // Bytes of the POSITION_UPDATE stream sent on connection 0 (traced
  // runs only; the net decode probe replays it).
  Bytes recorded_stream;
  bool record_stream = false;
};

}  // namespace wirebench
