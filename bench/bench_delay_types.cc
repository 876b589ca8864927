// Paper Sections 1.3 and 6: initial, bursty and slow delays on A.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_delay_types", argc, argv);
}
