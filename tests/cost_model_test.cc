#include "sim/cost_model.h"

#include <gtest/gtest.h>

#include <limits>

namespace dqsched::sim {
namespace {

TEST(CostModel, InstrTimeAtHundredMips) {
  CostModel cm;
  // 100 MIPS => 1 instruction = 10 ns.
  EXPECT_EQ(cm.InstrTime(1), 10);
  EXPECT_EQ(cm.InstrTime(100), 1000);
  EXPECT_EQ(cm.InstrTime(200000), Milliseconds(2.0));
}

TEST(CostModel, TuplesPerPageMatchesTableOne) {
  CostModel cm;
  // 8 KB page / 40 B tuple = 204 tuples.
  EXPECT_EQ(cm.TuplesPerPage(), 204);
}

TEST(CostModel, PagesForTuplesRoundsUp) {
  CostModel cm;
  EXPECT_EQ(cm.PagesForTuples(0), 0);
  EXPECT_EQ(cm.PagesForTuples(1), 1);
  EXPECT_EQ(cm.PagesForTuples(204), 1);
  EXPECT_EQ(cm.PagesForTuples(205), 2);
}

TEST(CostModel, PageTransferTimeAtSixMbPerSecond) {
  CostModel cm;
  // 8192 B / 6e6 B/s = 1.365 ms.
  EXPECT_NEAR(ToMillis(cm.PageTransferTime()), 1.365, 0.01);
}

TEST(CostModel, DiskPositionTimeIsSeekPlusLatency) {
  CostModel cm;
  EXPECT_EQ(cm.DiskPositionTime(), Milliseconds(22.0));
}

TEST(CostModel, MinWaitingTimeReproducesPaperTwentyMicros) {
  // Section 5.1.3: "we obtain a value of 20 us" for a wrapper reading
  // sequentially and shipping over a 100 Mb/s network.
  CostModel cm;
  EXPECT_NEAR(ToMicros(cm.MinWaitingTime()), 20.0, 1.0);
}

TEST(CostModel, ReceiveCpuPerTupleIsMessageCostAmortized) {
  CostModel cm;
  // 200000 instr / 204 tuples ~= 980 instr ~= 9.8 us.
  EXPECT_NEAR(ToMicros(cm.ReceiveTupleCpuTime()), 9.8, 0.2);
}

TEST(CostModel, TupleIoTimeIsTransferDominated) {
  CostModel cm;
  // ~6.7 us/tuple transfer plus amortized positioning and I/O CPU.
  const double us = ToMicros(cm.TupleIoTime());
  EXPECT_GT(us, 6.5);
  EXPECT_LT(us, 9.0);
}

TEST(CostModel, BmiExceedsOneAtPaperDefaults) {
  // w_min / (2 * IO_p) > 1: materialization is beneficial even at full
  // delivery speed (Section 5.2's "important result").
  CostModel cm;
  const double bmi = static_cast<double>(cm.MinWaitingTime()) /
                     (2.0 * static_cast<double>(cm.TupleIoTime()));
  EXPECT_GT(bmi, 1.0);
  EXPECT_LT(bmi, 2.0);
}

TEST(CostModel, OperandEntryBytes) {
  CostModel cm;
  EXPECT_EQ(cm.OperandEntryBytes(), 40 + 32);
}

TEST(CostModel, DefaultsValidate) {
  EXPECT_TRUE(CostModel{}.Validate().ok());
}

TEST(CostModel, ValidationCatchesBadValues) {
  CostModel cm;
  cm.cpu_mips = 0;
  EXPECT_FALSE(cm.Validate().ok());
  cm = CostModel{};
  cm.page_size_bytes = 10;  // smaller than a tuple
  EXPECT_FALSE(cm.Validate().ok());
  cm = CostModel{};
  cm.tuples_per_message = 0;
  EXPECT_FALSE(cm.Validate().ok());
  cm = CostModel{};
  cm.disk_transfer_mb_s = -1;
  EXPECT_FALSE(cm.Validate().ok());
  cm = CostModel{};
  cm.instr_move_tuple = -5;
  EXPECT_FALSE(cm.Validate().ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double CostModel::*field :
       {&CostModel::cpu_mips, &CostModel::disk_latency_ms,
        &CostModel::disk_seek_ms, &CostModel::disk_transfer_mb_s,
        &CostModel::network_mb_s}) {
    cm = CostModel{};
    cm.*field = nan;
    EXPECT_FALSE(cm.Validate().ok());
  }
}

}  // namespace
}  // namespace dqsched::sim
