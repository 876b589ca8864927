// The memory-limitation sweep (paper Section 4.2).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_memory_limit", argc, argv);
}
