// Source faults on the Figure 6 workload (DESIGN.md §8).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_fault_tolerance", argc, argv);
}
