// Tests for the campaign engine's work pool (src/base/thread_pool.h):
// worker-count resolution, Submit futures, exception propagation, and the
// draining destructor.
#include "src/base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>

namespace memsentry {
namespace {

TEST(ThreadPoolTest, HardwareJobsIsPositive) {
  EXPECT_GE(HardwareJobs(), 1);
  EXPECT_EQ(ResolveJobs(0), HardwareJobs());
  EXPECT_EQ(ResolveJobs(-3), HardwareJobs());
  EXPECT_EQ(ResolveJobs(1), 1);
  EXPECT_EQ(ResolveJobs(7), 7);
}

TEST(ThreadPoolTest, SubmitReturnsValueThroughFuture) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.threads(), 2);
  auto a = pool.Submit([] { return 21 * 2; });
  auto b = pool.Submit([] { return std::string("done"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "done");
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&done] {
        ++done;
        return 0;
      });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace memsentry
