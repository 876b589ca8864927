// Field-by-field equality of two runs' ExecutionMetrics: every non-wall
// field, the fault counters included (the same fields strategy_semantics_
// test's MetricsDigest hashes). The differential tests (kernel modes,
// transport modes) compare a run against its twin with this one check.

#ifndef DQSCHED_TESTS_EXPECT_IDENTICAL_H_
#define DQSCHED_TESTS_EXPECT_IDENTICAL_H_

#include <gtest/gtest.h>

#include "core/metrics.h"

namespace dqsched::core {

inline void ExpectIdentical(const ExecutionMetrics& a,
                            const ExecutionMetrics& b, const char* label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.response_time, b.response_time);
  EXPECT_EQ(a.busy_time, b.busy_time);
  EXPECT_EQ(a.stalled_time, b.stalled_time);
  EXPECT_EQ(a.result_count, b.result_count);
  EXPECT_EQ(a.result_checksum, b.result_checksum);
  EXPECT_EQ(a.planning_phases, b.planning_phases);
  EXPECT_EQ(a.execution_phases, b.execution_phases);
  EXPECT_EQ(a.degradations, b.degradations);
  EXPECT_EQ(a.cf_activations, b.cf_activations);
  EXPECT_EQ(a.dqo_splits, b.dqo_splits);
  EXPECT_EQ(a.operand_spills, b.operand_spills);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.rate_change_events, b.rate_change_events);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.disk.pages_read, b.disk.pages_read);
  EXPECT_EQ(a.disk.pages_written, b.disk.pages_written);
  EXPECT_EQ(a.disk.positionings, b.disk.positionings);
  EXPECT_EQ(a.disk.io_calls, b.disk.io_calls);
  EXPECT_EQ(a.disk.busy, b.disk.busy);
  EXPECT_EQ(a.network.tuples_received, b.network.tuples_received);
  EXPECT_EQ(a.network.messages_received, b.network.messages_received);
  EXPECT_EQ(a.network.receive_cpu, b.network.receive_cpu);
  EXPECT_EQ(a.temps.temps_created, b.temps.temps_created);
  EXPECT_EQ(a.temps.tuples_written, b.temps.tuples_written);
  EXPECT_EQ(a.temps.tuples_read, b.temps.tuples_read);
  EXPECT_EQ(a.temps.cache_served_reads, b.temps.cache_served_reads);
  const FaultStats& fa = a.fault;
  const FaultStats& fb = b.fault;
  EXPECT_EQ(fa.stalls_injected, fb.stalls_injected);
  EXPECT_EQ(fa.disconnects_injected, fb.disconnects_injected);
  EXPECT_EQ(fa.reconnects, fb.reconnects);
  EXPECT_EQ(fa.sources_killed, fb.sources_killed);
  EXPECT_EQ(fa.sources_suspected, fb.sources_suspected);
  EXPECT_EQ(fa.sources_dead, fb.sources_dead);
  EXPECT_EQ(fa.recoveries, fb.recoveries);
  EXPECT_EQ(fa.replays_discarded, fb.replays_discarded);
  EXPECT_EQ(fa.source_down_events, fb.source_down_events);
  EXPECT_EQ(fa.source_recovered_events, fb.source_recovered_events);
  EXPECT_EQ(fa.sources_abandoned, fb.sources_abandoned);
  EXPECT_EQ(fa.partial_result, fb.partial_result);
  EXPECT_EQ(fa.deadline_hit, fb.deadline_hit);
}

}  // namespace dqsched::core

#endif  // DQSCHED_TESTS_EXPECT_IDENTICAL_H_
