// Reproduces paper Table 1: the simulation parameters actually used by
// this build, plus the derived quantities the paper's analysis rests on
// (w_min ~ 20 us, the per-tuple materialization cost IO_p, and the bmi at
// full delivery speed).

#include <cstdio>

#include "bench_common.h"
#include "common/table_printer.h"
#include "sim/cost_model.h"

int main(int argc, char** argv) {
  using namespace dqsched;
  const auto options = bench::ParseOptions(argc, argv, /*default_scale=*/1.0,
                                           bench::TableFlags());
  bench::PrintPreamble("Simulation parameters",
                       "Table 1 (simulation parameters)", options);
  const sim::CostModel cm;

  TablePrinter table({"Parameter", "Value"});
  table.AddRow({"CPU Speed", TablePrinter::Num(cm.cpu_mips, 0) + " Mips"});
  table.AddRow({"Disk Latency - Seek Time - Transfer Rate",
                TablePrinter::Num(cm.disk_latency_ms, 0) + " ms - " +
                    TablePrinter::Num(cm.disk_seek_ms, 0) + " ms - " +
                    TablePrinter::Num(cm.disk_transfer_mb_s, 0) + " MB/s"});
  table.AddRow({"I/O Cache Size", std::to_string(cm.io_cache_pages) +
                                      " pages"});
  table.AddRow({"Perform an I/O", std::to_string(cm.instr_per_io) +
                                      " Instr."});
  table.AddRow({"Number of Local Disks", std::to_string(cm.num_disks)});
  table.AddRow({"Tuple Size - Page Size",
                std::to_string(cm.tuple_size_bytes) + " bytes - " +
                    std::to_string(cm.page_size_bytes / 1024) + " Kb"});
  table.AddRow({"Move a Tuple", std::to_string(cm.instr_move_tuple) +
                                    " Instr."});
  table.AddRow({"Search for Match in Hash Table",
                std::to_string(cm.instr_hash_probe) + " Instr."});
  table.AddRow({"Produce a Result Tuple",
                std::to_string(cm.instr_produce_result) + " Instr."});
  table.AddRow({"Network Bandwidth",
                TablePrinter::Num(cm.network_mb_s, 0) + " Mbs"});
  table.AddRow({"Send/Receive a Message",
                std::to_string(cm.instr_per_message) + " Instr."});
  if (options.csv) {
    table.PrintCsv(stdout);
  } else {
    table.Print(stdout);
  }

  std::printf("\nDerived quantities:\n");
  std::printf("  tuples per page / message : %d / %d\n", cm.TuplesPerPage(),
              cm.tuples_per_message);
  std::printf("  w_min (Section 5.1.3)     : %s (paper: ~20 us)\n",
              FormatDuration(cm.MinWaitingTime()).c_str());
  std::printf("  IO_p per tuple (mat cost) : %s\n",
              FormatDuration(cm.TupleIoTime()).c_str());
  std::printf("  receive CPU per tuple     : %s\n",
              FormatDuration(cm.ReceiveTupleCpuTime()).c_str());
  std::printf("  bmi at w_min              : %.2f (degradation profitable "
              "when > bmt = 1)\n",
              static_cast<double>(cm.MinWaitingTime()) /
                  (2.0 * static_cast<double>(cm.TupleIoTime())));
  return 0;
}
