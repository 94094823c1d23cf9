// The serving stack, assembled the way `rcloak_tool serve` assembles it:
// default ServerOptions (2 workers, default admission bound), one event
// loop, default SessionPoolOptions, the serve profile and validity level 1
// on the paper-scale map with all-ones occupancy. `--secret` turns on
// challenge-response auth (cruise); `--spill` attaches a sync-writer spill
// file under the deterministic key schedule (cold_return).
#include <cstdio>

#include "bench.h"
#include "roadnet/generators.h"

namespace wirebench {
namespace {

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace

Bytes AuthSecret() {
  const std::string secret = "wirebench-shared-secret";
  return Bytes(secret.begin(), secret.end());
}

std::string Principal(int conn) { return "client" + std::to_string(conn); }

roadnet::RoadNetwork BuildMap() {
  return roadnet::MakePerturbedGrid(roadnet::AtlantaNwProfile(kMapSeed));
}

mobility::OccupancySnapshot AllOnesOccupancy(std::size_t segments) {
  mobility::OccupancySnapshot occupancy(segments);
  for (std::uint32_t i = 0; i < segments; ++i) {
    occupancy.Add(roadnet::SegmentId{i});
  }
  return occupancy;
}

server::SessionPoolOptions PoolOptionsFor(const WorkloadSpec& spec) {
  server::SessionPoolOptions options;
  if (spec.cold_tier) {
    const int levels = ServeProfile().num_levels();
    options.key_provider_factory = [levels](std::string_view user) {
      return net::DeterministicKeyProvider(kKeySeedBase, user, levels);
    };
    options.memory_budget_bytes = spec.budget_bytes;
  }
  return options;
}

Stack::~Stack() {
  if (front) front->Stop();
  front.reset();
  pool.reset();
  server.reset();
  if (!spill_path.empty()) std::remove(spill_path.c_str());
}

Status BuildStack(const WorkloadSpec& spec, const std::string& spill_path,
                  Stack* stack, SetupTimes* times) {
  std::int64_t t = NowNs();
  stack->net = BuildMap();
  times->map_s = SecondsSince(t);

  t = NowNs();
  core::Anonymizer engine(stack->net,
                          AllOnesOccupancy(stack->net.segment_count()));
  stack->server = std::make_unique<server::AnonymizationServer>(
      std::move(engine), server::ServerOptions{});
  times->context_s = SecondsSince(t);

  t = NowNs();
  stack->pool = std::make_unique<server::ContinuousSessionPool>(
      *stack->server, PoolOptionsFor(spec));
  if (spec.cold_tier) {
    std::remove(spill_path.c_str());
    stack->spill_path = spill_path;
    if (auto attached = stack->pool->AttachSpillFile(spill_path);
        !attached.ok()) {
      return attached;
    }
  }
  net::NetServerOptions options;
  if (spec.auth) options.auth_secret = AuthSecret();
  stack->front = std::make_unique<net::NetServer>(*stack->pool, options);
  if (auto started = stack->front->Start(); !started.ok()) return started;
  times->start_s = SecondsSince(t);
  return Status::Ok();
}

}  // namespace wirebench
