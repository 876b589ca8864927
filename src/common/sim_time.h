// Virtual (simulated) time. All timing in dqsched is discrete-event
// simulated; SimTime counts nanoseconds of virtual time since the start of a
// query execution. Using an integer tick avoids the accumulation drift a
// double-based clock would suffer over hundreds of millions of events.

#ifndef DQSCHED_COMMON_SIM_TIME_H_
#define DQSCHED_COMMON_SIM_TIME_H_

#include <cstdint>
#include <limits>
#include <string>

namespace dqsched {

/// Virtual time in nanoseconds.
using SimTime = int64_t;

/// Virtual duration in nanoseconds (same representation as SimTime).
using SimDuration = int64_t;

/// Sentinel meaning "no scheduled event" / "never".
inline constexpr SimTime kSimTimeNever = std::numeric_limits<int64_t>::max();

/// True when `v` converts to int64_t without overflow: within
/// [-2^63, 2^63). NaN and infinities fail. The conversions below, and any
/// count of bytes or nanoseconds held in a double, need it.
inline constexpr bool FitsInt64(double v) {
  return v >= -9223372036854775808.0 && v < 9223372036854775808.0;
}

inline constexpr SimDuration Nanoseconds(int64_t n) { return n; }
inline constexpr SimDuration Microseconds(double us) {
  return static_cast<SimDuration>(us * 1e3);
}
inline constexpr SimDuration Milliseconds(double ms) {
  return static_cast<SimDuration>(ms * 1e6);
}
inline constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * 1e9);
}

inline constexpr double ToMicros(SimDuration d) { return d / 1e3; }
inline constexpr double ToMillis(SimDuration d) { return d / 1e6; }
inline constexpr double ToSecondsF(SimDuration d) { return d / 1e9; }

/// Human-readable rendering with an adaptive unit, e.g. "12.3 ms", "4.56 s".
std::string FormatDuration(SimDuration d);

}  // namespace dqsched

#endif  // DQSCHED_COMMON_SIM_TIME_H_
