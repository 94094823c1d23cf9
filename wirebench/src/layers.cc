#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "crypto/keyed_prng.h"
#include "store/spill_file.h"
#include "util/interner.h"
#include "util/rng.h"

namespace wirebench {
namespace {

constexpr int kRepeats = 5;
constexpr std::size_t kCoreSamples = 400;
constexpr std::size_t kStoreReads = 4000;
constexpr std::size_t kReplayUpdates = 50000;

double Share(std::uint64_t part, std::uint64_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

double ElapsedUs(std::int64_t start) {
  return static_cast<double>(NowNs() - start) / 1e3;
}

std::map<int, crypto::AccessKey> AllKeys(const crypto::KeyChain& keys) {
  std::map<int, crypto::AccessKey> granted;
  for (int level = 1; level <= keys.num_levels(); ++level) {
    granted.emplace(level, keys.LevelKey(level));
  }
  return granted;
}

crypto::KeyChain KeysFor(std::uint32_t user, std::uint64_t epoch) {
  return net::DeterministicKeyProvider(kKeySeedBase, UserName(user),
                                       ServeProfile().num_levels())(epoch);
}

core::AnonymizeRequest RequestFor(const RecloakEvent& e) {
  core::AnonymizeRequest request;
  request.origin = roadnet::SegmentId{e.segment};
  request.profile = ServeProfile();
  request.algorithm = core::Algorithm::kRge;
  request.context = UserName(e.user) + "/epoch-" + std::to_string(e.epoch);
  return request;
}

// ---------------------------------------------------------------- net

void ProbeNet(const LayerInputs& in, SpanRecorder* spans, int parent,
              MetricMap* m) {
  const Bytes& stream = in.timeline->recorded_stream;
  Samples ns_per_update;
  for (int r = 0; r < kRepeats && !stream.empty(); ++r) {
    const int span = spans->Begin("net.decode", parent);
    const std::int64_t t = NowNs();
    net::FrameReassembler rx;
    std::uint64_t updates = 0;
    // The server's read size (Connection::ReadReady), drained per chunk.
    constexpr std::size_t kChunk = 16u << 10;
    for (std::size_t off = 0; off < stream.size(); off += kChunk) {
      const std::size_t n = std::min(kChunk, stream.size() - off);
      if (!rx.Feed(stream.data() + off, n).ok()) break;
      while (auto frame = rx.Next()) {
        if (net::DecodePositionUpdate(frame->payload).ok()) ++updates;
      }
    }
    spans->End(span);
    if (updates > 0) {
      ns_per_update.Add(static_cast<double>(NowNs() - t) /
                              static_cast<double>(updates));
    }
  }
  (*m)["net.decode_ns_per_update"] = {PercentileOrZero(ns_per_update, 50),
                                      "ns"};

  Samples encode_ns;
  const auto& artifacts = in.twin->artifacts;
  for (int r = 0; r < kRepeats && !artifacts.empty(); ++r) {
    const int span = spans->Begin("net.reply_encode", parent);
    const std::int64_t t = NowNs();
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      const Bytes wire = core::EncodeArtifact(*artifacts[i]);
      const Bytes prefix =
          net::ArtifactReplyPrefix(static_cast<std::uint32_t>(i), wire.size());
      bytes += wire.size() + prefix.size();
    }
    spans->End(span);
    if (bytes > 0) {
      encode_ns.Add(static_cast<double>(NowNs() - t) /
                          static_cast<double>(artifacts.size()));
    }
  }
  (*m)["net.reply_encode_ns"] = {PercentileOrZero(encode_ns, 50), "ns"};

  const net::NetServerStats& d = in.net_delta;
  (*m)["net.updates_per_batch"] = {
      d.batches ? static_cast<double>(d.updates_decoded) / d.batches : 0.0,
      "updates"};
  (*m)["net.largest_batch"] = {static_cast<double>(d.largest_batch),
                               "updates"};
  (*m)["net.artifact_cache_hit_rate"] = {
      Share(d.artifact_cache_hits,
            d.artifact_cache_hits + d.artifact_cache_misses),
      "share"};
  (*m)["net.bytes_out_per_update"] = {
      d.updates_decoded ? static_cast<double>(d.bytes_out) / d.updates_decoded
                        : 0.0,
      "B"};
  (*m)["net.reduce_in_tick"] = {static_cast<double>(d.reduce_in_tick),
                                "count"};
  (*m)["net.reads_paused"] = {static_cast<double>(d.reads_paused), "count"};
}

// ------------------------------------------------------- session pool

Status ProbeSessionPool(const LayerInputs& in, SpanRecorder* spans,
                        int parent, const std::string& store_input,
                        MetricMap* m) {
  // The first kReplayUpdates updates of the open loop, in batches of the
  // size the wire run formed in that phase.
  const auto& d = in.net_open_delta;
  ReplayOptions options;
  options.pool = PoolOptionsFor(*in.spec);
  options.batch_size = std::max<std::size_t>(
      1, d.batches ? static_cast<std::size_t>(
                         static_cast<double>(d.updates_decoded) / d.batches +
                         0.5)
                   : 1);
  options.last_phase = kOpen;
  options.max_updates = kReplayUpdates;
  if (in.spec->cold_tier) {
    options.spill_path = in.work_dir + "/replay." + std::to_string(::getpid()) +
                         ".rcsf";
  } else {
    options.spill_all_to = store_input;
  }
  ReplayResult replay;
  const int span = spans->Begin("session_pool.replay", parent);
  const Status status =
      Replay(*in.spec, *in.net, *in.timeline, options, &replay);
  spans->End(span);
  if (!options.spill_path.empty()) std::remove(options.spill_path.c_str());
  if (!status.ok()) return status;
  (*m)["session_pool.update_batch_ms_p50"] = {
      PercentileOrZero(replay.batch_ms, 50), "ms"};
  (*m)["session_pool.update_batch_ms_p99"] = {
      PercentileOrZero(replay.batch_ms, 99), "ms"};

  const auto& a = in.pool_after;
  const auto& b = in.pool_before;
  const std::uint64_t updates = a.updates - b.updates;
  const std::uint64_t recloaks = a.recloaks - b.recloaks;
  const std::uint64_t failures = a.recloak_failures - b.recloak_failures;
  (*m)["session_pool.in_region_share"] = {
      Share(a.served_in_region - b.served_in_region, updates), "share"};
  (*m)["session_pool.recloak_share"] = {Share(recloaks, updates), "share"};
  (*m)["session_pool.recloak_failure_share"] = {
      Share(failures, recloaks + failures), "share"};
  (*m)["session_pool.restore_on_miss_share"] = {
      Share(a.restored_on_miss - b.restored_on_miss, updates), "share"};
  (*m)["session_pool.restore_p99_us"] = {
      PercentileOrZero(a.restore_latency_ms, 99) * 1e3, "us"};
  (*m)["session_pool.write_stalls"] = {
      static_cast<double>(a.write_stalls - b.write_stalls), "count"};
  (*m)["session_pool.spill_compactions"] = {
      static_cast<double>(a.spill_compactions - b.spill_compactions),
      "count"};
  (*m)["session_pool.memory_mb"] = {
      static_cast<double>(a.memory_bytes) / (1024.0 * 1024.0), "MiB"};
  return Status::Ok();
}

// ---------------------------------------------------------- anon_server

// One tick's re-cloaks from the twin (the first measured tick that had
// any): the burst the probe drives through the server.
std::vector<RecloakEvent> OneTick(const std::vector<RecloakEvent>& events) {
  std::vector<RecloakEvent> tick;
  if (events.empty()) return tick;
  const double second = std::floor(events.front().now_s);
  for (const auto& e : events) {
    if (std::floor(e.now_s) == second) tick.push_back(e);
  }
  return tick;
}

void ProbeAnonServer(const LayerInputs& in, SpanRecorder* spans, int parent,
                     MetricMap* m) {
  const auto burst = OneTick(in.twin->recloaks);
  core::Anonymizer engine(*in.net, AllOnesOccupancy(in.net->segment_count()));
  server::AnonymizationServer server(std::move(engine),
                                     server::ServerOptions{});
  const core::Deanonymizer deanonymizer(server.engine().context());
  const int validity = net::NetServerOptions{}.continuous.validity_level;
  Samples round_ms;
  for (int r = 0; r < kRepeats && !burst.empty(); ++r) {
    std::vector<server::AnonymizationServer::BatchJob> jobs;
    std::vector<crypto::KeyChain> chains;
    for (const auto& e : burst) {
      chains.push_back(KeysFor(e.user, e.epoch));
      jobs.push_back({RequestFor(e), chains.back()});
    }
    const int span = spans->Begin("anon_server.burst_round", parent);
    const std::int64_t t = NowNs();
    auto futures = server.SubmitBatch(std::move(jobs));
    std::vector<core::CloakedArtifact> artifacts;
    std::vector<std::map<int, crypto::AccessKey>> keys;
    artifacts.reserve(futures.size());
    keys.reserve(futures.size());
    for (std::size_t i = 0; i < futures.size(); ++i) {
      if (!futures[i].ok()) continue;
      auto result = futures[i]->get();
      if (!result.ok()) continue;
      artifacts.push_back(std::move(result->artifact));
      keys.push_back(AllKeys(chains[i]));
    }
    std::vector<core::Deanonymizer::ReduceJob> reduce_jobs;
    for (std::size_t i = 0; i < artifacts.size(); ++i) {
      reduce_jobs.push_back({&artifacts[i], &keys[i], validity});
    }
    (void)server.ReduceOnWorkers(deanonymizer, reduce_jobs);
    round_ms.Add(static_cast<double>(NowNs() - t) / 1e6);
    spans->End(span);
  }
  (*m)["anon_server.burst_round_ms"] = {PercentileOrZero(round_ms, 50),
                                        "ms"};
  (*m)["anon_server.burst_jobs"] = {static_cast<double>(burst.size()),
                                    "count"};
  (*m)["anon_server.steals"] = {
      static_cast<double>(in.server_after.steals - in.server_before.steals),
      "count"};
  (*m)["anon_server.rejected_queue_full"] = {
      static_cast<double>(in.server_after.rejected_queue_full -
                          in.server_before.rejected_queue_full),
      "count"};
}

// ---------------------------------------------------------------- core

void ProbeCore(const LayerInputs& in, SpanRecorder* spans, int parent,
               MetricMap* m) {
  const core::Anonymizer anonymizer(*in.net,
                                    AllOnesOccupancy(in.net->segment_count()));
  const core::Deanonymizer deanonymizer(anonymizer.context());
  const auto& events = in.twin->recloaks;
  const std::size_t n = std::min(kCoreSamples, events.size());
  Samples anonymize_us, validity_us, full_us;
  double bytes = 0.0;
  const int span = spans->Begin("core", parent);
  for (std::size_t i = 0; i < n; ++i) {
    const auto keys = KeysFor(events[i].user, events[i].epoch);
    const auto granted = AllKeys(keys);
    const auto request = RequestFor(events[i]);
    int s = spans->Begin("core.anonymize", span);
    std::int64_t t = NowNs();
    auto result = anonymizer.Anonymize(request, keys);
    anonymize_us.Add(ElapsedUs(t));
    spans->End(s);
    if (!result.ok()) continue;
    bytes += static_cast<double>(core::EncodeArtifact(result->artifact).size());
    s = spans->Begin("core.reduce_validity", span);
    t = NowNs();
    (void)deanonymizer.Reduce(result->artifact, granted, 1);
    validity_us.Add(ElapsedUs(t));
    spans->End(s);
    s = spans->Begin("core.reduce_full", span);
    t = NowNs();
    (void)deanonymizer.Reduce(result->artifact, granted, 0);
    full_us.Add(ElapsedUs(t));
    spans->End(s);
  }
  spans->End(span);
  (*m)["core.anonymize_us_p50"] = {PercentileOrZero(anonymize_us, 50), "us"};
  (*m)["core.anonymize_us_p99"] = {PercentileOrZero(anonymize_us, 99), "us"};
  (*m)["core.reduce_validity_us_p50"] = {PercentileOrZero(validity_us, 50),
                                         "us"};
  (*m)["core.reduce_full_us_p50"] = {PercentileOrZero(full_us, 50), "us"};
  (*m)["core.reduce_full_us_p99"] = {PercentileOrZero(full_us, 99), "us"};
  (*m)["core.artifact_bytes_mean"] = {
      full_us.empty() ? 0.0 : bytes / static_cast<double>(full_us.count()),
      "B"};
}

// -------------------------------------------------------------- crypto

void ProbeCrypto(SpanRecorder* spans, int parent, MetricMap* m) {
  constexpr int kCalls = 2000;
  const int levels = ServeProfile().num_levels();
  Samples chain_us, tag_us;
  for (int r = 0; r < kRepeats; ++r) {
    int span = spans->Begin("crypto.key_chain", parent);
    std::int64_t t = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      (void)crypto::KeyChain::FromSeed(
          kKeySeedBase + static_cast<std::uint64_t>(i), levels);
    }
    chain_us.Add(ElapsedUs(t) / kCalls);
    spans->End(span);
    span = spans->Begin("crypto.auth_tag", parent);
    const Bytes nonce(net::kAuthNonceBytes, static_cast<std::uint8_t>(r));
    const Bytes secret = AuthSecret();
    const std::string principal = Principal(0);
    t = NowNs();
    for (int i = 0; i < kCalls; ++i) {
      (void)net::AuthTag(secret, nonce, principal);
    }
    tag_us.Add(ElapsedUs(t) / kCalls);
    spans->End(span);
  }
  (*m)["crypto.key_chain_us"] = {PercentileOrZero(chain_us, 50), "us"};
  (*m)["crypto.auth_tag_us"] = {PercentileOrZero(tag_us, 50), "us"};
}

// --------------------------------------------------------------- store

Status ProbeStore(const LayerInputs& in, const std::string& path,
                  SpanRecorder* spans, int parent, MetricMap* m) {
  util::StringInterner interner;
  auto attached = store::SpillFile::Attach(
      path, core::FingerprintNetwork(*in.net), interner);
  if (!attached.ok()) return attached.status();
  store::SpillFile& file = **attached;
  const auto before = file.stats();
  (*m)["store.dead_fraction"] = {Share(before.dead_bytes, before.file_bytes),
                                 "share"};
  auto users = file.LiveUsers();
  Xoshiro256 rng(7);
  for (std::size_t i = users.size(); i > 1; --i) {
    std::swap(users[i - 1], users[rng.NextBounded(i)]);
  }
  if (users.size() > kStoreReads) users.resize(kStoreReads);
  Samples read_us;
  std::vector<store::SpillFile::Record> records;
  int span = spans->Begin("store.read_record", parent);
  for (const auto user : users) {
    const std::int64_t t = NowNs();
    auto state = file.ReadRecord(user);
    read_us.Add(ElapsedUs(t));
    if (!state.ok()) return state.status();
    records.push_back({user, std::move(*state)});
  }
  spans->End(span);
  (*m)["store.read_record_us_p50"] = {PercentileOrZero(read_us, 50), "us"};
  (*m)["store.read_record_us_p99"] = {PercentileOrZero(read_us, 99), "us"};

  // Re-append what was read in sweep-sized groups (the pool's default
  // sweep batch): every record supersedes a live one.
  const std::size_t group = server::SessionPoolOptions{}.sweep_batch;
  std::size_t bytes = 0;
  span = spans->Begin("store.append", parent);
  const std::int64_t t = NowNs();
  for (std::size_t i = 0; i < records.size(); i += group) {
    std::vector<store::SpillFile::Record> batch(
        records.begin() + static_cast<std::ptrdiff_t>(i),
        records.begin() +
            static_cast<std::ptrdiff_t>(std::min(records.size(), i + group)));
    for (const auto& r : batch) bytes += r.state.size();
    if (auto s = file.AppendBatch(batch); !s.ok()) return s;
  }
  const double append_s = static_cast<double>(NowNs() - t) / 1e9;
  spans->End(span);
  (*m)["store.append_mb_per_s"] = {
      append_s > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) / append_s
                   : 0.0,
      "MiB/s"};

  span = spans->Begin("store.compact", parent);
  const std::int64_t c = NowNs();
  if (auto s = file.Compact(); !s.ok()) return s;
  (*m)["store.compact_ms"] = {static_cast<double>(NowNs() - c) / 1e6, "ms"};
  spans->End(span);
  return Status::Ok();
}

}  // namespace

int SpanRecorder::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
}

bool SpanRecorder::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%llu\t%s\t%lld\t%lld\n", i, s.parent,
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Status RunLayerProbes(const LayerInputs& in, SpanRecorder* spans,
                      MetricMap* metrics) {
  MetricMap& m = *metrics;
  // The wire requests themselves, one span each, under their phase.
  const char* phase_names[] = {"wire.warmup", "wire.open", "wire.closed"};
  int phase_span[3] = {-1, -1, -1};
  for (std::size_t i = 0; i < in.timeline->log.size(); ++i) {
    const LogEntry& e = in.timeline->log[i];
    int& parent = phase_span[e.phase];
    if (parent < 0) {
      parent = spans->Begin(phase_names[e.phase]);
      spans->End(parent);
    }
    SpanRecorder::Span span;
    span.name = e.kind == Kind::kUpdate ? "wire.update" : "wire.reduce";
    span.start_ns = e.due_ns;
    span.end_ns = e.done_ns;
    span.parent = parent;
    span.request = i + 1;
    spans->Add(std::move(span));
  }

  const std::string store_input =
      in.spill_copy.empty()
          ? in.work_dir + "/store." + std::to_string(::getpid()) + ".rcsf"
          : in.spill_copy;
  int span = spans->Begin("probe.net");
  ProbeNet(in, spans, span, &m);
  spans->End(span);
  span = spans->Begin("probe.session_pool");
  const Status pool = ProbeSessionPool(in, spans, span, store_input, &m);
  spans->End(span);
  if (!pool.ok()) return pool;
  span = spans->Begin("probe.anon_server");
  ProbeAnonServer(in, spans, span, &m);
  spans->End(span);
  span = spans->Begin("probe.core");
  ProbeCore(in, spans, span, &m);
  spans->End(span);
  span = spans->Begin("probe.crypto");
  ProbeCrypto(spans, span, &m);
  spans->End(span);
  span = spans->Begin("probe.store");
  const Status store = ProbeStore(in, store_input, spans, span, &m);
  spans->End(span);
  if (in.spill_copy.empty()) std::remove(store_input.c_str());
  if (!store.ok()) return store;

  Samples map_s, context_s, warmup_s, retries;
  for (const auto& s : in.setups) {
    map_s.Add(s.map_s);
    context_s.Add(s.context_s);
    warmup_s.Add(s.warmup_s);
    retries.Add(static_cast<double>(s.warmup_retries));
  }
  m["setup.map_s"] = {map_s.Median(), "s"};
  m["setup.context_s"] = {context_s.Median(), "s"};
  m["setup.warmup_s"] = {warmup_s.Median(), "s"};
  m["setup.warmup_retries"] = {retries.Median(), "count"};
  return Status::Ok();
}

}  // namespace wirebench
