#include "server/anonymization_server.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/stopwatch.h"

namespace rcloak::server {

AnonymizationServer::AnonymizationServer(core::Anonymizer engine,
                                         const ServerOptions& options)
    : engine_(std::move(engine)), options_(options) {
  // Pre-assignment (RPLE tables) and the grid cell index up front:
  // afterwards the MapContext is fully warm and Anonymize() only reads
  // shared state, so one engine serves all shards.
  (void)engine_.EnsurePreassigned();
  (void)engine_.EnsureGridReady();
  const int workers = std::max(1, options_.num_workers);
  per_shard_queue_ = std::max<std::size_t>(
      1, options_.max_queue / static_cast<std::size_t>(workers));
  shards_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    shards_.push_back(std::make_unique<Shard>(*engine_.context()));
  }
  for (int i = 0; i < workers; ++i) {
    Shard* shard = shards_[static_cast<std::size_t>(i)].get();
    shard->worker = std::thread([this, shard, i] { WorkerLoop(*shard, i); });
  }
}

AnonymizationServer::~AnonymizationServer() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->shutting_down = true;
    }
    shard->queue_cv.notify_all();
  }
  for (auto& shard : shards_) shard->worker.join();
  // Unserved anonymize jobs fail cleanly rather than dangling their
  // promises. Leftover fan-out tasks are dropped: their sharers complete
  // through the calling thread's lane (ReduceOnWorkers) or are covered by
  // the server-outlives-callers contract (RunOnWorkers).
  for (auto& shard : shards_) {
    for (auto& job : shard->queue) {
      if (job.task) continue;
      job.promise.set_value(
          Status::FailedPrecondition("server shut down before execution"));
    }
  }
}

StatusOr<AnonymizationServer::ResultFuture> AnonymizationServer::Enqueue(
    std::size_t shard_index, Job job) {
  Shard& shard = *shards_[shard_index];
  auto future = job.promise.get_future();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.shutting_down) {
      return Status::FailedPrecondition("server is shutting down");
    }
    if (shard.queue.size() >= per_shard_queue_) {
      ++shard.rejected;
      return Status::ResourceExhausted("anonymization queue full");
    }
    shard.queue.push_back(std::move(job));
    ++shard.accepted;
    depth = shard.queue.size();
  }
  shard.queue_cv.notify_one();
  // The shard is backing up behind its worker: hint one sibling so an idle
  // worker comes to steal (a full fan-out wake per submit would cost the
  // hot path more than the skew it cures).
  if (depth > 1 && shards_.size() > 1) {
    WakeStealers((shard_index + 1) % shards_.size(), 1);
  }
  return future;
}

bool AnonymizationServer::PostTask(std::size_t shard_index, FanoutFn fn) {
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.shutting_down || shard.queue.size() >= per_shard_queue_) {
      return false;
    }
    Job job;
    job.task = std::move(fn);
    shard.queue.push_back(std::move(job));
  }
  shard.queue_cv.notify_one();
  return true;
}

// Bumps the steal epoch of `count` shards starting at `first` (wrapping)
// and wakes their workers so sleeping ones re-scan for stealable work.
void AnonymizationServer::WakeStealers(std::size_t first, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    Shard& shard = *shards_[(first + k) % shards_.size()];
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.steal_epoch;
    }
    shard.queue_cv.notify_one();
  }
}

StatusOr<AnonymizationServer::ResultFuture> AnonymizationServer::Submit(
    core::AnonymizeRequest request, crypto::KeyChain keys) {
  const std::size_t shard_index =
      static_cast<std::size_t>(next_shard_.fetch_add(
          1, std::memory_order_relaxed)) %
      shards_.size();
  Job job;
  job.work.emplace(BatchJob{std::move(request), std::move(keys)});
  return Enqueue(shard_index, std::move(job));
}

std::vector<StatusOr<AnonymizationServer::ResultFuture>>
AnonymizationServer::SubmitBatch(std::vector<BatchJob> jobs) {
  // Round-robin shard assignment, then one lock acquisition per shard.
  std::vector<std::vector<std::size_t>> by_shard(shards_.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t shard_index =
        static_cast<std::size_t>(next_shard_.fetch_add(
            1, std::memory_order_relaxed)) %
        shards_.size();
    by_shard[shard_index].push_back(i);
  }
  std::vector<StatusOr<ResultFuture>> results;
  results.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    results.emplace_back(Status::Internal("batch job not visited"));
  }
  std::size_t total_enqueued = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::size_t enqueued = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const std::size_t i : by_shard[s]) {
        if (shard.shutting_down) {
          results[i] = Status::FailedPrecondition("server is shutting down");
          continue;
        }
        if (shard.queue.size() >= per_shard_queue_) {
          ++shard.rejected;
          results[i] = Status::ResourceExhausted("anonymization queue full");
          continue;
        }
        Job job;
        job.work.emplace(std::move(jobs[i]));
        results[i] = job.promise.get_future();
        shard.queue.push_back(std::move(job));
        ++shard.accepted;
        ++enqueued;
      }
    }
    if (enqueued > 0) shard.queue_cv.notify_one();
    total_enqueued += enqueued;
  }
  // Wake everyone once per batch: idle workers whose own deque stays dry
  // re-scan and steal from the loaded shards (skewed batches keep all
  // workers busy instead of leaving a tail shard lagging).
  if (total_enqueued > 1 && shards_.size() > 1) {
    WakeStealers(0, shards_.size());
  }
  return results;
}

std::optional<AnonymizationServer::Job> AnonymizationServer::TakeJob(
    Shard& shard, int worker_index, Shard** origin) {
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (!shard.queue.empty()) {
      Job job = std::move(shard.queue.front());
      shard.queue.pop_front();
      ++shard.in_flight;
      *origin = &shard;
      return job;
    }
  }
  // Own deque dry: steal from the back of the first loaded sibling (the
  // back, so the victim's owner and its thieves touch opposite ends).
  // try_lock keeps idle scans from piling onto a contended shard.
  const std::size_t count = shards_.size();
  for (std::size_t k = 1; k < count; ++k) {
    Shard& victim =
        *shards_[(static_cast<std::size_t>(worker_index) + k) % count];
    std::unique_lock<std::mutex> lock(victim.mutex, std::try_to_lock);
    if (!lock.owns_lock() || victim.queue.empty()) continue;
    Job job = std::move(victim.queue.back());
    victim.queue.pop_back();
    ++victim.in_flight;
    *origin = &victim;
    return job;
  }
  return std::nullopt;
}

void AnonymizationServer::ExecuteJob(Job job, Shard& executing,
                                     int worker_index, Shard& origin) {
  const bool stolen = &executing != &origin;
  if (job.task) {
    WorkerSlot slot{worker_index, &executing.session,
                    &executing.reduce_session};
    job.task(slot);
    std::lock_guard<std::mutex> lock(executing.mutex);
    ++executing.fanout_tasks;
    if (stolen) ++executing.steals;
  } else {
    Stopwatch timer;
    auto result =
        engine_.Anonymize(job.work->request, job.work->keys,
                          executing.session);
    executing.latency_ms.Add(timer.ElapsedMillis());
    {
      std::lock_guard<std::mutex> lock(executing.mutex);
      if (result.ok()) {
        ++executing.succeeded;
      } else {
        ++executing.failed;
      }
      if (stolen) ++executing.steals;
    }
    job.promise.set_value(std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(origin.mutex);
    --origin.in_flight;
  }
  origin.drain_cv.notify_all();
}

void AnonymizationServer::WorkerLoop(Shard& shard, int worker_index) {
  for (;;) {
    Shard* origin = nullptr;
    std::optional<Job> job = TakeJob(shard, worker_index, &origin);
    if (job) {
      ExecuteJob(std::move(*job), shard, worker_index, *origin);
      continue;
    }
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.shutting_down && shard.queue.empty()) return;
    // Sleep until own work arrives or a steal hint lands. The epoch is
    // read under the same mutex the hinters bump it under, so a hint
    // between the failed scan above and this wait cannot be lost.
    const std::uint64_t seen_epoch = shard.steal_epoch;
    shard.queue_cv.wait(lock, [&shard, seen_epoch] {
      return shard.shutting_down || !shard.queue.empty() ||
             shard.steal_epoch != seen_epoch;
    });
    if (shard.shutting_down && shard.queue.empty()) return;
  }
}

int AnonymizationServer::RunOnWorkers(const FanoutFn& fn) {
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    int remaining = 0;
  };
  auto latch = std::make_shared<Latch>();
  int posted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    {
      std::lock_guard<std::mutex> lock(latch->mutex);
      ++latch->remaining;
    }
    const bool ok = PostTask(s, [fn, latch](WorkerSlot& slot) {
      fn(slot);
      std::lock_guard<std::mutex> lock(latch->mutex);
      if (--latch->remaining == 0) latch->cv.notify_all();
    });
    if (ok) {
      ++posted;
    } else {
      std::lock_guard<std::mutex> lock(latch->mutex);
      --latch->remaining;
    }
  }
  std::unique_lock<std::mutex> lock(latch->mutex);
  latch->cv.wait(lock, [&latch] { return latch->remaining == 0; });
  return posted;
}

std::vector<StatusOr<core::CloakRegion>> AnonymizationServer::ReduceOnWorkers(
    const core::Deanonymizer& deanonymizer,
    std::vector<core::Deanonymizer::ReduceJob> jobs) {
  // Shared fan-out state. Lanes draw jobs from one atomic cursor; the
  // state is owned by shared_ptr because a posted lane may surface in a
  // worker's deque after the call returned (it then finds the cursor
  // exhausted and exits without touching the borrowed job pointers).
  struct Fanout {
    const core::Deanonymizer* deanonymizer = nullptr;
    std::vector<core::Deanonymizer::ReduceJob> jobs;
    std::vector<StatusOr<core::CloakRegion>> results;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex mutex;
    std::condition_variable cv;
  };
  if (jobs.empty()) return {};
  auto state = std::make_shared<Fanout>();
  state->deanonymizer = &deanonymizer;
  state->jobs = std::move(jobs);
  state->results.reserve(state->jobs.size());
  for (std::size_t i = 0; i < state->jobs.size(); ++i) {
    state->results.emplace_back(Status::Internal("reduce job not visited"));
  }
  const auto lane = [state](WorkerSlot& slot) {
    const std::size_t total = state->jobs.size();
    for (;;) {
      const std::size_t i =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      state->results[i] = state->deanonymizer->ReduceOne(
          state->jobs[i], *slot.reduce_session);
      if (state->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->cv.notify_all();
      }
    }
  };
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    (void)PostTask(s, lane);
  }
  // The calling thread is a lane too: completion never depends on how deep
  // the worker deques are (with every worker busy elsewhere this degrades
  // to the serial ReduceBatch it replaced, never to a stall).
  core::ReduceSession caller_session;
  WorkerSlot caller_slot{-1, nullptr, &caller_session};
  lane(caller_slot);
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&state] {
      return state->completed.load(std::memory_order_acquire) >=
             state->jobs.size();
    });
  }
  // completed == jobs.size() means no lane is touching results anymore;
  // stragglers only ever read the exhausted cursor.
  return std::move(state->results);
}

void AnonymizationServer::Drain() {
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->mutex);
    shard->drain_cv.wait(lock, [&shard] {
      return shard->queue.empty() && shard->in_flight == 0;
    });
  }
}

ServerStats AnonymizationServer::stats() const {
  ServerStats stats;
  util::LatencyHistogram all_latencies;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    stats.accepted += shard->accepted;
    stats.rejected_queue_full += shard->rejected;
    stats.succeeded += shard->succeeded;
    stats.failed += shard->failed;
    stats.steals += shard->steals;
    stats.fanout_tasks += shard->fanout_tasks;
    all_latencies.Merge(shard->latency_ms);
  }
  stats.mean_latency_ms = all_latencies.Mean();
  stats.p95_latency_ms =
      all_latencies.empty() ? 0.0 : all_latencies.Percentile(95.0);
  return stats;
}

}  // namespace rcloak::server
