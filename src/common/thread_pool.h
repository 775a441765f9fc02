// Shared thread pool + parallel_for — the real (non-simulated) execution
// layer.
//
// The paper's claim that update work spreads across the cluster (§2.2, §6)
// was previously only *simulated*: every map task, per-partition tree
// update, contraction merge, and reduce ran in one serial loop. This pool
// makes map tasks, per-partition stages and fleet shards actually run in
// parallel on the host, while keeping results bit-identical to the serial
// run (see docs/threading.md for the determinism contract). A partition is
// the smallest unit: trees run serially on the thread that calls them.
//
// Design:
//   * one process-wide pool (ThreadPool::global()), sized by the
//     SLIDER_THREADS env var (unset/0 = hardware concurrency);
//   * parallel_for(n, fn) runs fn(i) for i in [0, n): indices are claimed
//     from a shared atomic cursor (work-stealing-ish self-scheduling), the
//     calling thread participates, and the call blocks until every index
//     completed — a fork/join barrier;
//   * nested parallel_for from inside a worker runs inline (serially) on
//     the calling worker, so a session's per-partition loop underneath the
//     fleet's per-shard loop can never deadlock the pool;
//   * determinism is the *caller's* job: fn(i) must write only to
//     index-i-owned slots; ordered reductions fold the slots afterwards.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slider {

class ThreadPool {
 public:
  // `threads` = total parallelism (worker threads spawned = threads - 1,
  // because the caller of parallel_for participates). threads <= 1 means
  // fully inline execution.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total parallelism (callers + workers), >= 1.
  int size() const { return threads_; }

  // Runs fn(i) for every i in [0, n); returns after all completed. Safe to
  // call concurrently from multiple threads and reentrantly from inside a
  // worker (runs inline in that case). Exceptions thrown by fn are
  // rethrown in the caller (first one wins).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // Process-wide pool. First use reads SLIDER_THREADS (unset, empty, or
  // "0" = std::thread::hardware_concurrency()).
  static ThreadPool& global();

  // Reconfigures the global pool (tests / benches). Requires that no
  // parallel_for is in flight. `threads` <= 0 resets to the SLIDER_THREADS
  // / hardware default.
  static void set_global_threads(int threads);

  // Parallelism the global pool would use right now (without forcing its
  // construction when called before first use — it reads the same config).
  static int global_threads();

 private:
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;  // guarded by done_mutex
  };

  void worker_loop();
  static void run_job(Job& job);

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stop_ = false;
};

// Convenience: ThreadPool::global().parallel_for(n, fn).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace slider
