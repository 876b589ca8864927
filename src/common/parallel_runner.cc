#include "common/parallel_runner.h"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>

namespace dqsched {

namespace {

/// One worker's task deque. The owner pops newest-first from the back;
/// thieves take oldest-first from the front, which keeps stolen work
/// coarse (early cells of a bench's grid tend to be the big sweeps).
struct WorkQueue {
  std::mutex mu;
  std::deque<size_t> tasks;
};

}  // namespace

ParallelRunner::ParallelRunner(int jobs)
    : jobs_(jobs > 0 ? jobs : DefaultJobs()) {}

int ParallelRunner::DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ParallelRunner::Run(
    const std::vector<std::function<void()>>& tasks) const {
  if (tasks.empty()) return;
  const size_t workers =
      std::min(static_cast<size_t>(jobs_), tasks.size());
  if (workers <= 1) {
    for (const auto& task : tasks) task();
    return;
  }

  std::vector<WorkQueue> queues(workers);
  for (size_t i = 0; i < tasks.size(); ++i) {
    queues[i % workers].tasks.push_back(i);
  }
  // Tasks never enqueue tasks, so queues only shrink: a queue seen empty
  // stays empty, and a worker whose scan finds every queue empty is done.
  // It returns at once; the tasks still running on other workers finish
  // on their threads, and the joins below wait for them.
  auto worker = [&](size_t self) {
    for (;;) {
      size_t task_index = tasks.size();  // sentinel: none found
      {
        WorkQueue& own = queues[self];
        std::lock_guard<std::mutex> lock(own.mu);
        if (!own.tasks.empty()) {
          task_index = own.tasks.back();
          own.tasks.pop_back();
        }
      }
      if (task_index == tasks.size()) {
        // Steal from the victim with the most queued work; none left means
        // every queue is empty for good.
        size_t victim = workers;
        size_t victim_load = 0;
        for (size_t v = 0; v < workers; ++v) {
          if (v == self) continue;
          std::lock_guard<std::mutex> lock(queues[v].mu);
          if (queues[v].tasks.size() > victim_load) {
            victim_load = queues[v].tasks.size();
            victim = v;
          }
        }
        if (victim == workers) return;
        std::lock_guard<std::mutex> lock(queues[victim].mu);
        if (queues[victim].tasks.empty()) continue;  // lost the race; rescan
        task_index = queues[victim].tasks.front();
        queues[victim].tasks.pop_front();
      }
      tasks[task_index]();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
}

}  // namespace dqsched
