#include "core/detail/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace fpm::core::detail {

namespace {

// -1 = unset (resolve from hardware_concurrency at pool start).
std::atomic<int> g_requested_threads{-1};

// Resolved once: hardware_concurrency() reads the online-CPU list from the
// system on every call, and lane_pool_threads() runs on every parallel
// sweep.
unsigned default_threads() noexcept {
  static const unsigned threads = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw - 1 : 0;
  }();
  return threads;
}

class LanePool {
 public:
  ~LanePool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Starts helpers on first call (count fixed then); returns helper count.
  unsigned ensure_started() {
    std::call_once(start_once_, [this] {
      const int requested = g_requested_threads.load(std::memory_order_relaxed);
      started_threads_ =
          requested >= 0 ? static_cast<unsigned>(requested) : default_threads();
      threads_.reserve(started_threads_);
      for (unsigned i = 0; i < started_threads_; ++i)
        threads_.emplace_back([this] { worker(); });
    });
    return started_threads_;
  }

  void run(std::size_t chunk_count,
           const std::function<void(std::size_t)>& fn) {
    // One sweep at a time; a second solving thread queues behind the first
    // rather than interleaving chunks of two jobs.
    std::lock_guard<std::mutex> run_lk(run_mu_);
    std::unique_lock<std::mutex> lk(mu_);
    job_ = &fn;
    total_ = chunk_count;
    next_ = 0;
    completed_ = 0;
    cv_work_.notify_all();
    // The caller participates: claim chunks until none remain, then wait
    // for helpers to finish theirs.
    while (next_ < total_) {
      const std::size_t chunk = next_++;
      lk.unlock();
      fn(chunk);
      lk.lock();
      ++completed_;
    }
    cv_done_.wait(lk, [this] { return completed_ == total_; });
    job_ = nullptr;
  }

 private:
  void worker() {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_work_.wait(lk, [this] {
        return stop_ || (job_ != nullptr && next_ < total_);
      });
      if (stop_) return;
      const std::size_t chunk = next_++;
      const auto* fn = job_;
      lk.unlock();
      (*fn)(chunk);
      lk.lock();
      if (++completed_ == total_) cv_done_.notify_all();
    }
  }

  std::mutex run_mu_;  // serializes whole sweeps
  std::mutex mu_;      // protects the fields below
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t total_ = 0;
  std::size_t next_ = 0;
  std::size_t completed_ = 0;
  bool stop_ = false;
  std::once_flag start_once_;
  unsigned started_threads_ = 0;
  std::vector<std::thread> threads_;
};

LanePool& pool() {
  static LanePool instance;
  return instance;
}

}  // namespace

void set_lane_pool_threads(unsigned n) noexcept {
  g_requested_threads.store(static_cast<int>(n), std::memory_order_relaxed);
}

unsigned lane_pool_threads() noexcept {
  const int requested = g_requested_threads.load(std::memory_order_relaxed);
  return requested >= 0 ? static_cast<unsigned>(requested)
                        : default_threads();
}

void parallel_for_chunks(std::size_t chunk_count,
                         const std::function<void(std::size_t)>& fn) {
  if (chunk_count < 2 || lane_pool_threads() == 0) {
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) fn(chunk);
    return;
  }
  auto& p = pool();
  if (p.ensure_started() == 0) {
    for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) fn(chunk);
    return;
  }
  p.run(chunk_count, fn);
}

}  // namespace fpm::core::detail
