// Host-side parallel loop for independent work items (fleet device runs,
// benchmark sweeps). ParallelFor(n, body) runs body(0) .. body(n-1) on
// thread_count() threads, the calling thread included: each thread claims
// the next unclaimed index from one atomic counter until none are left, so
// uneven item lengths (devices that fault and restart, apps with heavier
// handlers) balance themselves without queues or stealing. With one thread
// the loop runs inline on the caller, in index order.
//
// Determinism contract: the executor makes NO ordering guarantees between
// items on more than one thread, so callers must make each item independent
// (own Machine, own RNG, writing to its own pre-allocated result slot). Done
// that way, results are bit-identical regardless of thread count — the
// property the fleet engine and its tests rely on. There is no cancellation
// here: a caller that wants to stop early checks its own flag at the top of
// the body.
#ifndef SRC_FLEET_EXECUTOR_H_
#define SRC_FLEET_EXECUTOR_H_

#include <cstddef>
#include <functional>

namespace amulet {

class Executor {
 public:
  // threads <= 0 selects DefaultThreadCount().
  explicit Executor(int threads = 0);

  // Runs body(i) exactly once for every i in [0, n) and returns when all have
  // finished. Worker threads live for one call, so an executor is reusable
  // and holds no threads between calls.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) const;

  int thread_count() const { return threads_; }

  // std::thread::hardware_concurrency(), with a floor of 1.
  static int DefaultThreadCount();

 private:
  int threads_;
};

}  // namespace amulet

#endif  // SRC_FLEET_EXECUTOR_H_
