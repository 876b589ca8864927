// Paper Figure 7: relation F increasingly slowed down.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_fig7_slow_f", argc, argv);
}
