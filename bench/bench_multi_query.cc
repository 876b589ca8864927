// Multi-query mixes, serial vs shared (paper Section 6).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_multi_query", argc, argv);
}
