// Operator-level (DPHJ) vs scheduling-level (DSE) adaptation (1.1).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_operator_vs_scheduling", argc,
                                       argv);
}
