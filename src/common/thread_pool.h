// A small reusable thread pool with a parallel_for primitive.
//
// The comparison phase is embarrassingly parallel — a full confirmation
// round over 80 neighbours is 3160 independent DTW comparisons — so all the
// engine needs is a fork/join loop over an index range. The pool keeps its
// workers parked between calls (spawning threads per detection round would
// cost more than many of the rounds themselves).
//
// Determinism contract: parallel_for runs fn(worker, index) exactly once
// for every index in [0, count). Indices are claimed dynamically, so no
// ordering between them may be assumed; callers must write results into
// disjoint, pre-sized slots. The `worker` argument is < the requested
// parallelism and stable for the duration of one fn call, which lets
// callers keep one scratch object (e.g. a ts::DtwWorkspace) per worker.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vp {

class ThreadPool {
 public:
  // A pool with `workers` total workers, the calling thread included, so
  // workers - 1 background threads are spawned. workers == 0 or 1 spawns
  // none (parallel_for then degenerates to a serial loop).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total workers available to one parallel_for call (background threads
  // plus the calling thread).
  std::size_t workers() const { return threads_.size() + 1; }

  // Utilisation counters, accumulated since construction (or the last
  // reset_stats). They cover pool-dispatched jobs only — the serial fast
  // paths never touch the pool, and nested calls run inline on their
  // worker — and cost two clock reads per participant per job, which is
  // noise next to any real job. Read by the observability RunReport.
  struct Stats {
    std::size_t workers = 0;          // pool width (calling thread included)
    std::uint64_t jobs = 0;           // parallel_for calls dispatched here
    std::uint64_t tasks = 0;          // indices executed by pool jobs
    std::uint64_t submit_wait_ns = 0; // submitters blocked on a busy pool
    std::vector<std::uint64_t> worker_busy_ns;  // per participant id
  };
  Stats stats() const;
  void reset_stats();

  // Runs fn(worker, index) for every index in [0, count) on up to
  // max_workers workers; the calling thread participates as worker 0.
  // Blocks until every index has run. The first exception thrown by fn is
  // rethrown here (remaining indices are abandoned). Safe to call from
  // inside a worker: the nested call runs serially on that worker.
  void parallel_for(std::size_t count, std::size_t max_workers,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  // Process-wide pool, created on first use. Sized to the hardware but
  // never below 8 workers, so the parallel machinery is exercised (and the
  // determinism contract testable) even on single-core machines.
  static ThreadPool& shared();

 private:
  void worker_loop();
  void run_tasks(std::size_t worker_id);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  bool stop_ = false;
  bool busy_ = false;          // a parallel_for call is in flight
  std::uint64_t generation_ = 0;
  std::size_t active_ = 0;     // participating background workers not yet done

  // Current job (valid while busy_).
  const std::function<void(std::size_t, std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t max_workers_ = 0;
  std::atomic<std::size_t> next_{0};        // next index to claim
  std::atomic<std::size_t> worker_ids_{0};  // next participant id to hand out
  std::exception_ptr error_;

  // Utilisation counters (see Stats). Relaxed atomics: they feed reports,
  // not synchronisation.
  std::atomic<std::uint64_t> stat_jobs_{0};
  std::atomic<std::uint64_t> stat_tasks_{0};
  std::atomic<std::uint64_t> stat_submit_wait_ns_{0};
  std::vector<std::atomic<std::uint64_t>> stat_worker_busy_ns_;
};

// Number of hardware threads, at least 1.
std::size_t hardware_threads();

// Convenience front-end used by the library: runs fn(worker, index) over
// [0, count) with the requested number of threads. threads <= 1 (or
// count <= 1) runs serially on the calling thread without touching the
// pool; threads == 0 means "all hardware threads". Results must not depend
// on the thread count — see the determinism contract above.
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace vp
