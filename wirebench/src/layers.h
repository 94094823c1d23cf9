// The traced run's per-layer view. Spans (name, start, end, parent) are
// kept in memory around each probe call and each wire request, and are
// written out when the run ends. Every probe times calls into one layer's
// public functions from outside; nothing inside the library is
// instrumented.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "verify.h"

namespace wirebench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::uint64_t request = 0;  // wire seq + 1, 0 for probe spans
  };
  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  void Add(Span span) { spans_.push_back(std::move(span)); }
  // Tab-separated: id, parent, request, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

using MetricMap = std::map<std::string, std::pair<double, std::string>>;

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const roadnet::RoadNetwork* net = nullptr;
  const Timeline* timeline = nullptr;
  const ReplayResult* twin = nullptr;
  net::NetServerStats net_delta;       // both measured phases
  net::NetServerStats net_open_delta;  // the open loop alone
  server::SessionPoolStats pool_before, pool_after;
  server::ServerStats server_before, server_after;
  std::vector<SetupTimes> setups;
  std::string work_dir;
  std::string spill_copy;  // cold tier: the run's spill file, copied
};

// Runs every per-layer probe and fills `metrics` with the per_layer set.
Status RunLayerProbes(const LayerInputs& in, SpanRecorder* spans,
                      MetricMap* metrics);

}  // namespace wirebench
