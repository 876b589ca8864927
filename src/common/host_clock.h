// The single blessed wall-clock entry point of the tree.
//
// The determinism contract (DESIGN §11) requires every non-wall
// `ExecutionMetrics` field to be byte-identical across `--jobs`,
// strategies, and scalar-vs-vectorized kernels. Host wall-clock reads are
// therefore *advisory only*: they may feed `*_host_seconds` reporting
// fields, but never a simulated charge, a scheduling decision input, or
// anything checksummed.
// `tools/dqs_analyze.py` (rule `wall-clock`) bans every other wall-clock
// read in src/ — `std::chrono::{steady,system,high_resolution}_clock`,
// `time()`, `clock()`, `gettimeofday` — so that new timing sites are
// forced through this header, where the contract is stated once.

#ifndef DQSCHED_COMMON_HOST_CLOCK_H_
#define DQSCHED_COMMON_HOST_CLOCK_H_

#include <chrono>

namespace dqsched {

/// Monotonic host time. Wraps std::chrono::steady_clock so call sites
/// never spell a clock name (the analyzer would flag them if they did).
class HostClock {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Current monotonic host time.
  static TimePoint Now() { return std::chrono::steady_clock::now(); }

  /// Seconds elapsed since `start`, as a double (reporting granularity).
  static double SecondsSince(TimePoint start) {
    return std::chrono::duration<double>(Now() - start).count();
  }
};

}  // namespace dqsched

#endif  // DQSCHED_COMMON_HOST_CLOCK_H_
