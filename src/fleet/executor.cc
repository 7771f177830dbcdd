#include "src/fleet/executor.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace amulet {

int Executor::DefaultThreadCount() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Executor::Executor(int threads) : threads_(threads > 0 ? threads : DefaultThreadCount()) {}

void Executor::ParallelFor(size_t n, const std::function<void(size_t)>& body) const {
  std::atomic<size_t> next{0};
  auto drain = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      body(i);
    }
  };
  // Never more threads than items. The jthreads join when `workers` goes out
  // of scope, which is what publishes their writes to the caller.
  const size_t threads = std::min(n, static_cast<size_t>(threads_));
  std::vector<std::jthread> workers;
  for (size_t t = 1; t < threads; ++t) {
    workers.emplace_back(drain);
  }
  drain();
}

}  // namespace amulet
