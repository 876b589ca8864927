// Paper Figure 6: relation A increasingly slowed down.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_fig6_slow_a", argc, argv);
}
