// In-process replays of a wire run's update stream.
//
// The twin (the bench_e23 --verify oracle) replays every update the wire
// answered OK, in send order, through a pool with the same profile, key
// schedule (net::DeterministicKeyProvider) and occupancy, and compares
// each artifact's bytes with the reply's. A failed wire update left its
// session unchanged, so skipping it keeps the twin in step. Reduce replies
// are checked against a direct Deanonymizer::Reduce of the same artifact
// with the same keys.
#pragma once

#include <cstdint>

#include "bench.h"
#include "util/stats.h"

namespace wirebench {

// One re-cloak the replay observed: enough to rebuild its request.
struct RecloakEvent {
  std::uint32_t user = 0;
  std::uint32_t segment = 0;
  std::uint64_t epoch = 0;
  double now_s = 0.0;
};

struct ReplayOptions {
  int workers = 2;
  std::size_t max_queue = server::ServerOptions{}.max_queue;
  server::SessionPoolOptions pool;
  std::string spill_path;  // attach a spill file when non-empty
  // Batch size after the warm-up (the warm-up replays in batches of 4096),
  // and the last phase replayed.
  std::size_t batch_size = 4096;
  std::uint8_t last_phase = kClosed;
  // Stop after this many updates past the warm-up.
  std::size_t max_updates = SIZE_MAX;
  // After the replay, spill every resident session to this file (when the
  // pool has none attached): the store probe's input on workloads that
  // run without a cold tier.
  std::string spill_all_to;
};

struct ReplayResult {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t failed = 0;
  double region_segments_sum = 0.0;
  std::uint64_t region_samples = 0;
  Samples batch_ms;  // measured-phase UpdateBatch wall times
  // The first kKeptRecloaks re-cloaks and kKeptArtifacts new artifacts
  // past the warm-up: the per-layer probes' inputs.
  std::vector<RecloakEvent> recloaks;
  std::vector<server::ContinuousSessionPool::SharedArtifact> artifacts;
};

inline constexpr std::size_t kKeptRecloaks = 20000;
inline constexpr std::size_t kKeptArtifacts = 2000;

Status Replay(const WorkloadSpec& spec, const roadnet::RoadNetwork& net,
              const Timeline& timeline, const ReplayOptions& options,
              ReplayResult* result);

// Level-0 reduce replies vs direct Deanonymizer::Reduce; returns the
// number of mismatching replies (OK replies only).
StatusOr<std::uint64_t> VerifyReduces(const roadnet::RoadNetwork& net,
                                      const Timeline& timeline);

}  // namespace wirebench
