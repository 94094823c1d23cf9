// Workload definitions and the deterministic request streams.
//
// Offered rates and tick periods are fixed numbers, set well below the
// closed-loop throughput (about 1/12 on cruise, 1/4 to 2/5 on
// cold_return) and about four median burst rounds apart on exit_storm, so
// that open-loop
// latency measures service and batching rather than backlog growth. How
// they were chosen is in README.md.
#include <algorithm>
#include <cmath>

#include "bench.h"
#include "crypto/siphash.h"
#include "util/rng.h"

namespace wirebench {

std::string UserName(std::uint32_t user) { return "u" + std::to_string(user); }

std::uint64_t EpochOfContext(std::string_view context) {
  const auto at = context.rfind("/epoch-");
  if (at == std::string_view::npos) return 0;
  std::uint64_t epoch = 0;
  for (const char c : context.substr(at + 7)) {
    if (c < '0' || c > '9') return 0;
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

std::uint64_t ArtifactHash(const std::uint8_t* data, std::size_t n) {
  static constexpr crypto::SipKey kKey = {0x77, 0x69, 0x72, 0x65, 0x62, 0x65,
                                          0x6e, 0x63, 0x68, 0x2d, 0x61, 0x72,
                                          0x74, 0x69, 0x66, 0x61};
  return crypto::SipHash24(kKey, data, n);
}

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "cruise") {
    // 4k users reporting once per simulated second (0.5 s of wall time);
    // drift keeps ~97% of updates inside the validity region; 2% level-0
    // reduces; auth on. Below the front door's 4,096-entry reply-cache
    // prune threshold, so net and classification set the numbers.
    s.users = 4000;
    s.rate_per_s = 8000.0;
    s.move_prob = 0.1;
    s.reduce_share = 0.02;
    s.auth = true;
    s.slo_ms = 1.0;
    s.latency_window_s = 0.25;
  } else if (name == "exit_storm") {
    // 8k users in tick-synchronous bursts; a rotating quarter cohort
    // teleports every tick, so every teleport re-cloaks. Run by hand only:
    // at serve defaults each burst passes the admission bound and about a
    // tenth of the requests fail, so it is not a BENCHMARK.json workload.
    s.users = 8000;
    s.tick_period_s = 2.0;
    s.teleport_every = 4;
    s.reduce_share = 0.02;
    s.slo_ms = 2000.0;
  } else if (name == "cold_return") {
    // Zipf(1) popularity over ~10x the resident sessions, spill file
    // attached (sync writer): restores on miss beside sweep spills.
    s.users = 8000;
    s.rate_per_s = 16000.0;
    s.move_prob = 0.1;
    s.zipf_s = 1.0;
    s.reduce_share = 0.02;
    s.cold_tier = true;
    s.budget_bytes = 2400000;
    s.slo_ms = 15.0;
    s.latency_window_s = 4.0;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

struct Stream::Impl {
  WorkloadSpec spec;
  Xoshiro256 rng;
  // Adjacency in CSR form (drift picks a uniform neighbour).
  std::vector<std::uint32_t> adj_begin;
  std::vector<std::uint32_t> adj;
  std::uint32_t segments = 0;
  std::vector<std::uint32_t> current;  // per-user segment
  std::vector<std::uint32_t> order;    // per-tick report order
  std::vector<double> zipf_cdf;
  std::vector<std::uint32_t> rank_to_user;
  std::vector<Request> warmup;
  std::uint64_t index = 0;  // requests emitted
  std::uint64_t tick = 1;
  std::uint32_t slot = 0;

  Impl(const WorkloadSpec& s, const roadnet::RoadNetwork& net,
       std::uint64_t seed)
      : spec(s), rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed) {
    segments = static_cast<std::uint32_t>(net.segment_count());
    adj_begin.reserve(segments + 1);
    for (std::uint32_t i = 0; i < segments; ++i) {
      adj_begin.push_back(static_cast<std::uint32_t>(adj.size()));
      for (const auto other : net.AdjacentSegments(roadnet::SegmentId{i})) {
        adj.push_back(roadnet::Index(other));
      }
    }
    adj_begin.push_back(static_cast<std::uint32_t>(adj.size()));
    current.resize(spec.users);
    for (std::uint32_t u = 0; u < spec.users; ++u) {
      current[u] = static_cast<std::uint32_t>(rng.NextBounded(segments));
      Request r;
      r.user = u;
      r.segment = current[u];
      warmup.push_back(r);
    }
    order.resize(spec.users);
    for (std::uint32_t u = 0; u < spec.users; ++u) order[u] = u;
    if (spec.tick_period_s <= 0.0) Shuffle(order);
    if (spec.zipf_s > 0.0) {
      zipf_cdf.resize(spec.users);
      double total = 0.0;
      for (std::uint32_t r = 0; r < spec.users; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
        zipf_cdf[r] = total;
      }
      for (auto& c : zipf_cdf) c /= total;
      rank_to_user = order;
      Shuffle(rank_to_user);
    }
  }

  void Shuffle(std::vector<std::uint32_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.NextBounded(i)]);
    }
  }

  void Drift(std::uint32_t user) {
    if (rng.NextDouble() >= spec.move_prob) return;
    const std::uint32_t s = current[user];
    const std::uint32_t n = adj_begin[s + 1] - adj_begin[s];
    if (n == 0) return;
    current[user] = adj[adj_begin[s] + rng.NextBounded(n)];
  }

  std::int64_t DueNs(std::uint64_t request_index) const {
    if (spec.tick_period_s > 0.0) {
      return static_cast<std::int64_t>(static_cast<double>(tick - 1) *
                                       spec.tick_period_s * 1e9);
    }
    return static_cast<std::int64_t>(static_cast<double>(request_index) /
                                     spec.rate_per_s * 1e9);
  }

  Request Next() {
    Request r;
    r.due_offset_ns = DueNs(index);
    if (rng.NextDouble() < spec.reduce_share) {
      r.kind = Kind::kReduce;
      r.user = static_cast<std::uint32_t>(rng.NextBounded(spec.users));
      ++index;
      return r;
    }
    if (spec.zipf_s > 0.0) {
      const double x = rng.NextDouble();
      const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), x);
      const std::size_t rank =
          std::min<std::size_t>(it - zipf_cdf.begin(), spec.users - 1);
      r.user = rank_to_user[rank];
      Drift(r.user);
      r.now_s = 1.0 + static_cast<double>(index) / spec.rate_per_s;
    } else {
      r.user = order[slot];
      if (spec.teleport_every > 0 &&
          r.user % spec.teleport_every == tick % spec.teleport_every) {
        current[r.user] = static_cast<std::uint32_t>(rng.NextBounded(segments));
      } else {
        Drift(r.user);
      }
      r.now_s = static_cast<double>(tick);
      if (++slot == spec.users) {
        slot = 0;
        ++tick;
      }
    }
    r.segment = current[r.user];
    ++index;
    return r;
  }
};

Stream::Stream(const WorkloadSpec& spec, const roadnet::RoadNetwork& net,
               std::uint64_t seed)
    : impl_(std::make_unique<Impl>(spec, net, seed)) {}
Stream::~Stream() = default;

std::vector<Request> Stream::WarmupRequests() const { return impl_->warmup; }
Request Stream::Next() { return impl_->Next(); }
std::int64_t Stream::PeekDueNs() const { return impl_->DueNs(impl_->index); }

}  // namespace wirebench
