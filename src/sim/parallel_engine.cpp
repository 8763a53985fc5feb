#include "sim/parallel_engine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace poq::sim {

unsigned ParallelTickEngine::resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

ParallelTickEngine::ParallelTickEngine(unsigned threads)
    : threads_(resolve_threads(threads)) {
  if (threads_ > 1) {
    spares_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i) {
      spares_.push_back(std::make_shared<Job>());
    }
  }
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ParallelTickEngine::~ParallelTickEngine() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ParallelTickEngine::drain(const std::shared_ptr<Job>& job,
                               unsigned worker) {
  // Claim chunk indices off the job's counter until it drains — this
  // atomic cursor IS the work-stealing: a worker that finishes a cheap
  // chunk immediately claims the next canonical index, so a skewed range
  // never serializes on one pre-assigned partition. A stale drain (a
  // worker waking after the job completed) claims an exhausted index and
  // returns without touching the callback, so the callback reference is
  // never dereferenced after the dispatching call returns.
  while (true) {
    const std::size_t index = job->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job->chunks) return;
    std::exception_ptr failure;
    try {
      run_one_chunk(index, worker);
    } catch (...) {
      failure = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (failure && !job->error) job->error = failure;
      if (++job->completed == job->chunks) done_cv_.notify_all();
    }
  }
}

void ParallelTickEngine::worker_loop(unsigned worker) {
  std::uint64_t seen_job = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return shutdown_ || job_id_ != seen_job; });
      if (shutdown_) return;
      seen_job = job_id_;
      job = job_;
    }
    if (job) drain(job, worker);
  }
}

void ParallelTickEngine::dispatch(std::size_t chunk_count) {
  // Reuse a Job no late-waking worker still holds. Each worker holds at
  // most one Job at a time, so one of the threads_ spares is always free
  // and a dispatch never allocates.
  std::shared_ptr<Job> job;
  for (const std::shared_ptr<Job>& spare : spares_) {
    if (spare.use_count() == 1) {
      job = spare;
      break;
    }
  }
  ensure(job != nullptr, "ParallelTickEngine: every Job still held");
  job->error = nullptr;
  job->chunks = chunk_count;
  job->next.store(0, std::memory_order_relaxed);
  job->completed = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
    ++job_id_;
  }
  work_cv_.notify_all();
  drain(job, /*worker=*/0);  // the caller is a pool member too
  std::exception_ptr failure;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return job->completed == job->chunks; });
    if (job_ == job) job_.reset();
    failure = job->error;
  }
  if (failure) std::rethrow_exception(failure);
}

void ParallelTickEngine::run_one_chunk(std::size_t chunk, unsigned worker) {
  const std::size_t begin = chunk * chunk_grain_;
  const std::size_t end = std::min(begin + chunk_grain_, chunk_items_);
  if (chunk_load_ == nullptr) {
    (*chunk_fn_)(begin, end, worker);
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  (*chunk_fn_)(begin, end, worker);
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  // Concurrent workers accumulate into the same load record and the
  // dispatch's running max; relaxed atomics suffice (the phase barrier
  // orders the final read).
  std::atomic_ref<std::uint64_t>(chunk_load_->total_ns)
      .fetch_add(elapsed, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t>(chunk_load_->chunks)
      .fetch_add(1, std::memory_order_relaxed);
  std::atomic_ref<std::uint64_t> max_ref(dispatch_max_ns_);
  std::uint64_t seen = max_ref.load(std::memory_order_relaxed);
  while (elapsed > seen &&
         !max_ref.compare_exchange_weak(seen, elapsed,
                                        std::memory_order_relaxed)) {
  }
}

void ParallelTickEngine::run_chunks(std::size_t items, std::size_t grain,
                                    ChunkLoad* load, const ChunkFn& chunk_fn) {
  if (items == 0) return;
  require(grain > 0, "run_chunks: grain must be positive");
  const std::size_t chunk_count = (items + grain - 1) / grain;
  chunk_fn_ = &chunk_fn;
  chunk_items_ = items;
  chunk_grain_ = grain;
  chunk_load_ = load;
  dispatch_max_ns_ = 0;
  if (threads_ == 1 || chunk_count == 1) {
    // Inline fast path: same canonical chunk walk, no handshake. The
    // load accounting still runs so shard_imbalance is observable at
    // every threads setting. A failing chunk does not stop the walk, as
    // in dispatch: every chunk runs, then the first failure is rethrown.
    std::exception_ptr failure;
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) {
      try {
        run_one_chunk(chunk, /*worker=*/0);
      } catch (...) {
        if (!failure) failure = std::current_exception();
      }
    }
    if (failure) std::rethrow_exception(failure);
  } else {
    dispatch(chunk_count);
  }
  if (load != nullptr) load->weighted_max_ns += dispatch_max_ns_ * chunk_count;
  chunk_fn_ = nullptr;
  chunk_load_ = nullptr;
}

}  // namespace poq::sim
