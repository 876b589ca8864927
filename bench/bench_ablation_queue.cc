// Ablation of the per-wrapper queue capacity (paper Section 2.1).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_ablation_queue", argc, argv);
}
