// DSE vs query scrambling (paper Section 1.2) and its timeout knob.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_scrambling", argc, argv);
}
