// wirebench: wire-level serving benchmark of the ReverseCloak front door.
//
//   wirebench --workload cruise|exit_storm|cold_return --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// One run: five full set-ups (map, context, server start, handshakes,
// every user's first artifact; four in forked children, setup_s is the
// median, the one in this process is kept), then an open-loop phase at
// the workload's fixed offered rate for 1/3 of S and a closed-loop
// throughput phase for 2/3 of S, then (untimed) the byte verification of
// every reply against the in-process twin. The last line of stdout is the
// result object; the full result, with failure counts by error code,
// run-validity figures, the latency percentiles and the closed-loop
// throughput, goes to <work-dir>/<workload>-seed<N>-trace<T>.json. With --trace 1 the run
// also runs the per-layer probes, prints the per-layer metrics instead of
// the end-to-end ones, and writes its spans next to the result file.
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "layers.h"
#include "loadgen.h"
#include "verify.h"

namespace wirebench {
namespace {

// Full set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Log entries reserved per run: above what warm-up, the open loop and
// 60 s of closed loop at 150k updates/s can send.
constexpr std::size_t kLogCapacity = 10'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/wirebench/runs";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

void MakeDirs(const std::string& path) {
  std::string prefix;
  std::stringstream parts(path);
  std::string part;
  while (std::getline(parts, part, '/')) {
    prefix += part + "/";
    ::mkdir(prefix.c_str(), 0755);
  }
}

double VmRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// Host CPU time stolen by the hypervisor, in /proc/stat ticks: the share
// over the measured phases goes into the result file, to tell a noisy
// host from a slow program.
struct CpuTicks {
  std::uint64_t total = 0, steal = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTicks ticks;
  stat >> cpu;
  for (int field = 0; field < 10; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}


// User plus system CPU time of the whole process.
double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

std::string MetricsJson(const MetricMap& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + Num(value.first) +
           ", \"unit\": \"" + value.second + "\"}";
  }
  return out + "}";
}

net::NetServerStats Delta(const net::NetServerStats& a,
                          const net::NetServerStats& b) {
  net::NetServerStats d = b;
  d.bytes_in -= a.bytes_in;
  d.bytes_out -= a.bytes_out;
  d.frames_in -= a.frames_in;
  d.frames_out -= a.frames_out;
  d.updates_decoded -= a.updates_decoded;
  d.reduce_requests -= a.reduce_requests;
  d.reduce_in_tick -= a.reduce_in_tick;
  d.batches -= a.batches;
  d.partial_dispatches -= a.partial_dispatches;
  d.artifact_cache_hits -= a.artifact_cache_hits;
  d.artifact_cache_misses -= a.artifact_cache_misses;
  d.reads_paused -= a.reads_paused;
  d.reads_resumed -= a.reads_resumed;
  return d;
}

bool CopyFile(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!in || !out) return false;
  out << in.rdbuf();
  return static_cast<bool>(out);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "wirebench: %s\n", message.c_str());
  return 1;
}

// One full set-up: the stack, the generator's stream, and a connected,
// warmed-up generator.
struct Live {
  std::unique_ptr<Timeline> timeline;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<LoadGen> gen;
  SetupTimes times;
  ~Live() {
    gen.reset();  // close the connections before the server stops
    stack.reset();
  }
};

Status SetUp(const WorkloadSpec& spec, std::uint64_t seed,
             const std::string& spill_path, bool record_stream, Live* live) {
  live->timeline = std::make_unique<Timeline>();
  live->timeline->record_stream = record_stream;
  // Reserved up front, so that the generator's log never moves in mid-run.
  // Untouched capacity costs no resident memory.
  live->timeline->log.reserve(kLogCapacity);
  live->stack = std::make_unique<Stack>();
  RCLOAK_RETURN_IF_ERROR(
      BuildStack(spec, spill_path, live->stack.get(), &live->times));
  // The generator's inputs are not part of set-up time.
  live->stream = std::make_unique<Stream>(spec, live->stack->net, seed);
  const auto warmup = live->stream->WarmupRequests();
  live->gen = std::make_unique<LoadGen>(spec, live->timeline.get());
  std::int64_t t = NowNs();
  RCLOAK_RETURN_IF_ERROR(live->gen->Connect(
      live->stack->front->port(), live->stack->front->map_fingerprint()));
  live->times.handshake_s = static_cast<double>(NowNs() - t) / 1e9;
  t = NowNs();
  RCLOAK_RETURN_IF_ERROR(
      live->gen->Warmup(warmup, &live->times.warmup_retries));
  live->times.warmup_s = static_cast<double>(NowNs() - t) / 1e9;
  return Status::Ok();
}

// Runs one set-up in a child process and returns its times; the child
// tears its stack down and exits before this returns.
StatusOr<SetupTimes> SetUpInChild(const WorkloadSpec& spec,
                                  std::uint64_t seed,
                                  const std::string& spill_path) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 1;
    {
      Live live;
      const Status s = SetUp(spec, seed, spill_path, false, &live);
      if (s.ok() && ::write(fds[1], &live.times, sizeof(live.times)) ==
                        static_cast<ssize_t>(sizeof(live.times))) {
        code = 0;
      } else if (!s.ok()) {
        std::fprintf(stderr, "wirebench: child set-up: %s\n",
                     s.ToString().c_str());
      }
    }
    ::close(fds[1]);
    std::_Exit(code);
  }
  ::close(fds[1]);
  SetupTimes times;
  const ssize_t n = ::read(fds[0], &times, sizeof(times));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof(times)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return Status::Internal("set-up child failed");
  }
  return times;
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    return Fail("unknown workload " + args.workload);
  }
  const std::string run_id = args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
  MakeDirs(args.work_dir);
  const std::string spill_path =
      args.work_dir + "/" + run_id + "." + std::to_string(::getpid()) +
      ".rcsf";
  const double open_s = args.seconds / 3.0;
  const double closed_s = args.seconds * 2.0 / 3.0;

  // ---- set-up, kSetups times -------------------------------------------
  // All but one set-up run in forked children, before this process starts
  // any thread, so the measured process's heap and rss_mb see one
  // set-up only; the last one, in this process, serves the measured
  // phases.
  std::vector<SetupTimes> setups;
  std::fflush(nullptr);
  for (int k = 1; k < kSetups; ++k) {
    auto times = SetUpInChild(spec, args.seed,
                              spill_path + ".setup" + std::to_string(k));
    if (!times.ok()) return Fail("set-up: " + times.status().ToString());
    setups.push_back(*times);
  }
  Live live;
  if (auto s = SetUp(spec, args.seed, spill_path, args.trace != 0, &live);
      !s.ok()) {
    return Fail("set-up: " + s.ToString());
  }
  setups.push_back(live.times);
  auto& stack = live.stack;
  auto& gen = live.gen;
  auto& stream = live.stream;
  auto& timeline = live.timeline;

  // ---- measured phases -------------------------------------------------
  const auto net_before = stack->front->stats();
  const auto pool_before = stack->pool->stats();
  const auto server_before = stack->server->stats();
  const std::size_t measured_from = timeline->log.size();
  const CpuTicks cpu_before = ReadCpuTicks();
  if (auto s = gen->RunOpen(*stream, open_s); !s.ok()) {
    return Fail("open loop: " + s.ToString());
  }
  // The serving stack's memory at the end of the open loop: resident
  // bytes once the allocator has returned its free pages, less what the
  // generator holds (its request log alone grows by 56 bytes a request).
  // The high-water mark was tried first; its transients moved it by up to
  // a quarter between runs of the same code. The closed loop is left out,
  // as its request count grows with throughput.
  ::malloc_trim(0);
  const double rss_mb =
      VmRssMb() - static_cast<double>(gen->ResidentBytes()) / (1024.0 * 1024.0);
  const auto net_open = stack->front->stats();
  const double cpu_s_before = ProcessCpuSeconds();
  if (auto s = gen->RunClosed(*stream, closed_s); !s.ok()) {
    return Fail("closed loop: " + s.ToString());
  }
  const double closed_cpu_s = ProcessCpuSeconds() - cpu_s_before;
  const auto net_after = stack->front->stats();
  const auto pool_after = stack->pool->stats();
  const auto server_after = stack->server->stats();
  const CpuTicks cpu_after = ReadCpuTicks();
  const double steal_share =
      cpu_after.total > cpu_before.total
          ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                static_cast<double>(cpu_after.total - cpu_before.total)
          : 0.0;
  gen->Close();
  stack->front->Stop();
  std::string spill_copy;
  if (args.trace != 0 && spec.cold_tier) {
    stack->pool.reset();  // flushes and closes the spill file
    spill_copy = spill_path + ".copy";
    if (!CopyFile(spill_path, spill_copy)) return Fail("spill copy failed");
  }
  const Timeline& tl = *timeline;

  // ---- outcome counts and latencies (from the log) --------------------
  // Update latencies are taken per window of due times (the workload's
  // latency window; one burst on exit_storm), reduce latencies per 4-s
  // window, and the medians of the window percentiles reported;
  // closed-loop throughput likewise per 0.5-s window of reply times.
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t open_updates = 0, slo_met = 0, closed_ok = 0;
  std::map<int, std::uint64_t> failures_by_code;
  std::map<std::int64_t, Samples> update_windows, reduce_windows;
  std::map<std::int64_t, double> closed_windows;
  const auto window_ns =
      static_cast<std::int64_t>(spec.latency_window_s * 1e9);
  constexpr std::int64_t kReduceWindowNs = 4'000'000'000;
  constexpr std::int64_t kThroughputWindowNs = 500'000'000;
  for (std::size_t i = measured_from; i < tl.log.size(); ++i) {
    const LogEntry& e = tl.log[i];
    ++attempted;
    if (e.code != 0) {
      ++failed;
      ++failures_by_code[e.code];
      if (e.phase == kOpen && e.kind == Kind::kUpdate) ++open_updates;
      continue;
    }
    const double ms = static_cast<double>(e.done_ns - e.due_ns) / 1e6;
    if (e.phase == kClosed) {
      if (e.kind == Kind::kUpdate) ++closed_ok;
      if (e.kind == Kind::kUpdate && e.done_ns < tl.closed_end_ns) {
        closed_windows[(e.done_ns - tl.closed_start_ns) /
                       kThroughputWindowNs] += 1.0;
      }
    } else if (e.kind == Kind::kReduce) {
      reduce_windows[(e.due_ns - tl.open_t0_ns) / kReduceWindowNs].Add(ms);
    } else {
      ++open_updates;
      if (ms <= spec.slo_ms) ++slo_met;
      update_windows[(e.due_ns - tl.open_t0_ns) / window_ns].Add(ms);
    }
  }
  Samples window_p50, window_p99, window_rate;
  std::uint64_t latency_samples = 0;
  for (const auto& [window, samples] : update_windows) {
    latency_samples += samples.count();
    window_p50.Add(samples.Percentile(50.0));
    window_p99.Add(samples.Percentile(99.0));
  }
  Samples reduce_p50, reduce_p99;
  std::uint64_t reduce_samples = 0;
  for (const auto& [window, samples] : reduce_windows) {
    reduce_samples += samples.count();
    reduce_p50.Add(samples.Percentile(50.0));
    reduce_p99.Add(samples.Percentile(99.0));
  }
  // The first quarter of the closed loop is its own warm-up: the window
  // fills, and on exit_storm the users whose open-loop re-cloaks failed
  // are still re-cloaking. A last, partial window is left out.
  const std::int64_t closed_ns = tl.closed_end_ns - tl.closed_start_ns;
  const std::int64_t first_counted_window =
      closed_ns / 4 / kThroughputWindowNs;
  const std::int64_t full_windows = closed_ns / kThroughputWindowNs;
  for (const auto& [window, count] : closed_windows) {
    if (window < first_counted_window || window >= full_windows) continue;
    window_rate.Add(count * 1e9 / kThroughputWindowNs);
  }
  // Generator lateness: how long after its due time each open-loop
  // request was framed into the send buffer.
  Samples late;
  for (std::size_t i = measured_from; i < tl.log.size(); ++i) {
    const LogEntry& e = tl.log[i];
    if (e.phase == kOpen) {
      late.Add(static_cast<double>(e.sent_ns - e.due_ns) / 1e6);
    }
  }
  const double late_p99 = PercentileOrZero(late, 99.0);
  const double late_max = PercentileOrZero(late, 100.0);
  Samples setup_totals;
  for (const auto& s : setups) setup_totals.Add(s.total());
  const double setup_s = setup_totals.Median();

  // ---- correctness: the twin and the reduce oracle ---------------------
  ReplayOptions twin_options;
  twin_options.workers = 4;
  twin_options.max_queue = std::size_t{1} << 20;
  ReplayResult twin;
  if (auto s = Replay(spec, stack->net, tl, twin_options, &twin); !s.ok()) {
    return Fail("twin replay: " + s.ToString());
  }
  auto reduce_mismatches = VerifyReduces(stack->net, tl);
  if (!reduce_mismatches.ok()) {
    return Fail("reduce oracle: " + reduce_mismatches.status().ToString());
  }

  // Run validity: the generator kept its schedule and every reply came.
  // A burst is enqueued in one go, so its tail leaves a few ms after the
  // tick; the limit is then 2% of the tick period.
  const double late_limit_ms =
      spec.tick_period_s > 0 ? spec.tick_period_s * 20.0 : 2.0;
  const bool generator_on_time = late_p99 <= late_limit_ms && late_max <= 50.0;
  const bool correct = twin.mismatches == 0 && twin.failed == 0 &&
                       *reduce_mismatches == 0 && generator_on_time &&
                       latency_samples > 0;

  // Latency percentiles and closed-loop throughput swing by up to a
  // quarter or more from run to run on a shared host (10-run spreads in
  // README.md), too wide for any bound the benchmark may set. They go to
  // the result file and the traced run; update_slo_met_share is the
  // bounded latency metric.
  MetricMap unbounded;
  unbounded["update_p50_ms"] = {PercentileOrZero(window_p50, 50.0), "ms"};
  unbounded["update_p99_ms"] = {PercentileOrZero(window_p99, 50.0), "ms"};
  unbounded["reduce_p50_ms"] = {PercentileOrZero(reduce_p50, 50.0), "ms"};
  unbounded["reduce_p99_ms"] = {PercentileOrZero(reduce_p99, 50.0), "ms"};
  unbounded["throughput_updates_per_s"] = {PercentileOrZero(window_rate, 50.0),
                                           "1/s"};
  MetricMap e2e;
  const double slo_share =
      open_updates ? static_cast<double>(slo_met) / open_updates : 0.0;
  e2e["update_slo_met_share"] = {slo_share, "share"};
  e2e["served_share"] = {
      attempted ? static_cast<double>(attempted - failed) / attempted : 0.0,
      "share"};
  e2e["setup_s"] = {setup_s, "s"};
  e2e["rss_mb"] = {rss_mb, "MiB"};
  e2e["region_segments_mean"] = {
      twin.region_samples ? twin.region_segments_sum / twin.region_samples
                          : 0.0,
      "segments"};

  MetricMap layer;
  SpanRecorder spans;
  if (args.trace != 0) {
    LayerInputs in;
    in.spec = &spec;
    in.net = &stack->net;
    in.timeline = &tl;
    in.twin = &twin;
    in.net_delta = Delta(net_before, net_after);
    in.net_open_delta = Delta(net_before, net_open);
    in.pool_before = pool_before;
    in.pool_after = pool_after;
    in.server_before = server_before;
    in.server_after = server_after;
    in.setups = setups;
    in.work_dir = args.work_dir;
    in.spill_copy = spill_copy;
    if (auto s = RunLayerProbes(in, &spans, &layer); !s.ok()) {
      return Fail("layer probes: " + s.ToString());
    }
    // The traced run's own end-to-end figures: the gap to an untraced run
    // of the same seed is the tracing overhead.
    for (const auto& [name, value] : unbounded) {
      layer["trace." + name] = value;
    }
    if (!spill_copy.empty()) std::remove(spill_copy.c_str());
    spans.WriteTsv(args.work_dir + "/" + run_id + ".spans.tsv");
  }

  // ---- report ---------------------------------------------------------
  std::ostringstream codes;
  bool first = true;
  for (const auto& [code, count] : failures_by_code) {
    codes << (first ? "" : ", ") << "\""
          << ErrorCodeName(static_cast<ErrorCode>(code)) << "\": " << count;
    first = false;
  }
  std::ostringstream detail;
  detail << "{\"workload\": \"" << spec.name << "\", \"seed\": " << args.seed
         << ", \"seconds\": " << Num(args.seconds)
         << ", \"trace\": " << args.trace << ", \"correct\": "
         << (correct ? "true" : "false") << ", \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"failures_by_code\": {"
         << codes.str() << "}, \"offered_rate_per_s\": "
         << Num(spec.tick_period_s > 0 ? spec.users / spec.tick_period_s
                                       : spec.rate_per_s)
         << ", \"open_updates_ok\": " << latency_samples
         << ", \"open_reduces_ok\": " << reduce_samples
         << ", \"latency_windows\": " << window_p99.count()
         << ", \"window_p50_ms\": " << JsonArray(window_p50.data())
         << ", \"window_p99_ms\": " << JsonArray(window_p99.data())
         << ", \"window_updates_per_s\": " << JsonArray(window_rate.data())
         << ", \"generator_late_p99_ms\": " << Num(late_p99)
         << ", \"generator_late_max_ms\": " << Num(late_max)
         << ", \"host_steal_share\": " << Num(steal_share)
         << ", \"closed_cpu_us_per_update\": "
         << Num(closed_ok ? closed_cpu_s * 1e6 / closed_ok : 0.0)
         << ", \"backlog_at_schedule_end\": " << tl.backlog_at_schedule_end
         << ", \"drain_ms\": " << Num(tl.drain_ms)
         << ", \"verified_updates\": " << twin.checked
         << ", \"update_mismatches\": " << twin.mismatches
         << ", \"twin_failures\": " << twin.failed
         << ", \"verified_reduces\": " << tl.reduces.size()
         << ", \"reduce_mismatches\": " << *reduce_mismatches
         << ", \"setup_runs\": [";
  for (std::size_t k = 0; k < setups.size(); ++k) {
    const auto& s = setups[k];
    detail << (k ? ", " : "") << "{\"map_s\": " << Num(s.map_s)
           << ", \"context_s\": " << Num(s.context_s)
           << ", \"start_s\": " << Num(s.start_s)
           << ", \"handshake_s\": " << Num(s.handshake_s)
           << ", \"warmup_s\": " << Num(s.warmup_s)
           << ", \"warmup_retries\": " << s.warmup_retries << "}";
  }
  detail << "], \"end_to_end\": " << MetricsJson(e2e)
         << ", \"unbounded\": " << MetricsJson(unbounded);
  if (args.trace != 0) detail << ", \"per_layer\": " << MetricsJson(layer);
  detail << "}\n";
  std::ofstream(args.work_dir + "/" + run_id + ".json") << detail.str();

  std::printf("wirebench %s seed %llu: %llu attempted, %llu failed, "
              "%llu updates + %zu reduces verified, %llu mismatches\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(twin.checked),
              tl.reduces.size(),
              static_cast<unsigned long long>(twin.mismatches +
                                              *reduce_mismatches));
  std::printf("generator lateness p99 %.3f ms, max %.3f ms; backlog at "
              "schedule end %llu, drained in %.1f ms\n",
              late_p99, late_max,
              static_cast<unsigned long long>(tl.backlog_at_schedule_end),
              tl.drain_ms);
  for (const MetricMap* map : {&e2e, &unbounded}) {
    for (const auto& [name, value] : *map) {
      std::printf("  %-28s %14.6f %s\n", name.c_str(), value.first,
                  value.second.c_str());
    }
  }
  if (!correct) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace != 0 ? layer : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  // One malloc arena for every thread. With glibc's per-thread arenas,
  // runs of the same code fell into two modes ~35% apart in closed-loop
  // throughput and CPU time per update, by which arena each server thread
  // drew (README.md). Set before any thread starts.
  mallopt(M_ARENA_MAX, 1);
  wirebench::Args args;
  if (!wirebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload cruise|exit_storm|cold_return "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  return wirebench::Run(args);
}
