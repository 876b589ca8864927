// Ablation of the DQP's batch size and kernels (paper Section 3.2).
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_ablation_batch", argc, argv);
}
