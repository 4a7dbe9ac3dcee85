// A small dependency-free worker pool: a fixed set of workers and a
// futures-style Submit. The campaign engine (src/eval/campaign_engine.h)
// runs its workers on one and is the suite's only parallel layer; every cell
// builds its own machine from a deterministic seed, so tasks share no
// mutable state and the pool guarantees nothing about execution order.
#ifndef MEMSENTRY_SRC_BASE_THREAD_POOL_H_
#define MEMSENTRY_SRC_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace memsentry {

// max(1, std::thread::hardware_concurrency) — the default worker count.
int HardwareJobs();

// jobs > 0 passes through; jobs <= 0 resolves to HardwareJobs(). This is the
// one place the `--jobs=N` convention (0 = auto) turns into a concrete
// worker count.
int ResolveJobs(int jobs);

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains the queue: already-submitted tasks finish, then workers exit.
  ~ThreadPool();

  int threads() const { return static_cast<int>(workers_.size()); }

  // Schedules fn() on a worker; the future carries its value or exception.
  template <typename Fn>
  auto Submit(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

 private:
  void Enqueue(std::function<void()> job);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace memsentry

#endif  // MEMSENTRY_SRC_BASE_THREAD_POOL_H_
