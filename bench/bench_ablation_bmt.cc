// Ablation of DSE's benefit materialization threshold (Section 4.4).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_ablation_bmt", argc, argv);
}
