#include "verify.h"

#include <cstdio>

namespace wirebench {

Status Replay(const WorkloadSpec& spec, const roadnet::RoadNetwork& net,
              const Timeline& timeline, const ReplayOptions& options,
              ReplayResult* result) {
  core::Anonymizer engine(net, AllOnesOccupancy(net.segment_count()));
  server::ServerOptions server_options;
  server_options.num_workers = options.workers;
  server_options.max_queue = options.max_queue;
  server::AnonymizationServer server(std::move(engine), server_options);
  server::ContinuousSessionPool pool(server, options.pool);
  if (!options.spill_path.empty()) {
    std::remove(options.spill_path.c_str());
    if (auto attached = pool.AttachSpillFile(options.spill_path);
        !attached.ok()) {
      return attached;
    }
  }
  const core::PrivacyProfile profile = ServeProfile();
  const core::ContinuousOptions continuous = net::NetServerOptions{}.continuous;
  std::vector<util::UserId> ids(spec.users);
  for (std::uint32_t u = 0; u < spec.users; ++u) {
    const std::string name = UserName(u);
    auto tracked = pool.Track(
        name, profile, core::Algorithm::kRge,
        net::DeterministicKeyProvider(kKeySeedBase, name,
                                      profile.num_levels()),
        continuous);
    if (!tracked.ok()) return tracked.status();
    ids[u] = *tracked;
  }

  std::vector<server::ContinuousSessionPool::SharedArtifact> last(spec.users);
  std::vector<std::uint64_t> last_hash(spec.users, 0);
  std::vector<std::uint32_t> last_length(spec.users, 0);
  std::vector<server::ContinuousSessionPool::IdPositionUpdate> batch;
  std::vector<std::size_t> index;
  std::uint8_t batch_phase = kWarmup;
  const auto flush = [&] {
    if (batch.empty()) return;
    const std::int64_t t = NowNs();
    auto results = pool.UpdateBatch(batch);
    const double ms = static_cast<double>(NowNs() - t) / 1e6;
    if (batch_phase != kWarmup) result->batch_ms.Add(ms);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const LogEntry& e = timeline.log[index[i]];
      if (!results[i].ok()) {
        ++result->failed;
        continue;
      }
      const auto& artifact = *results[i];
      if (artifact != last[e.user]) {
        last[e.user] = artifact;
        const Bytes wire = core::EncodeArtifact(*artifact);
        last_hash[e.user] = ArtifactHash(wire.data(), wire.size());
        last_length[e.user] = static_cast<std::uint32_t>(wire.size());
        if (e.phase != kWarmup) {
          if (result->recloaks.size() < kKeptRecloaks) {
            result->recloaks.push_back({e.user, e.segment,
                                        EpochOfContext(artifact->context),
                                        e.now_s});
          }
          if (result->artifacts.size() < kKeptArtifacts) {
            result->artifacts.push_back(artifact);
          }
        }
      }
      ++result->checked;
      if (last_hash[e.user] != e.hash || last_length[e.user] != e.length) {
        ++result->mismatches;
      }
      if (e.phase != kWarmup) {
        result->region_segments_sum +=
            static_cast<double>(artifact->region_segments.size());
        ++result->region_samples;
      }
    }
    batch.clear();
    index.clear();
  };
  std::size_t replayed = 0;
  for (std::size_t i = 0; i < timeline.log.size(); ++i) {
    const LogEntry& e = timeline.log[i];
    if (e.kind != Kind::kUpdate || e.code != 0) continue;
    if (e.phase > options.last_phase) break;
    if (e.phase != kWarmup && replayed++ == options.max_updates) break;
    const std::size_t limit =
        e.phase == kWarmup ? std::size_t{4096} : options.batch_size;
    if (e.phase != batch_phase || batch.size() >= limit) {
      flush();
      batch_phase = e.phase;
    }
    batch.push_back({ids[e.user], e.now_s, roadnet::SegmentId{e.segment}, 0});
    index.push_back(i);
  }
  flush();
  if (!options.spill_all_to.empty() && options.spill_path.empty()) {
    std::remove(options.spill_all_to.c_str());
    if (auto attached = pool.AttachSpillFile(options.spill_all_to);
        !attached.ok()) {
      return attached;
    }
    if (auto spilled = pool.SpillAllToFile(); !spilled.ok()) {
      return spilled.status();
    }
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> VerifyReduces(const roadnet::RoadNetwork& net,
                                      const Timeline& timeline) {
  const core::Deanonymizer deanonymizer(net);
  const int levels = ServeProfile().num_levels();
  std::uint64_t mismatches = 0;
  for (const auto& record : timeline.reduces) {
    const LogEntry& e = timeline.log[record.seq];
    if (e.code != 0) continue;
    auto artifact = core::DecodeArtifact(record.artifact_wire);
    if (!artifact.ok()) return artifact.status();
    const auto keys = net::DeterministicKeyProvider(
        kKeySeedBase, UserName(e.user), levels)(record.epoch);
    std::map<int, crypto::AccessKey> granted;
    for (int level = 1; level <= levels; ++level) {
      granted.emplace(level, keys.LevelKey(level));
    }
    auto region = deanonymizer.Reduce(*artifact, granted, 0);
    if (!region.ok() ||
        region->segments_by_id() != record.reply_segments) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace wirebench
