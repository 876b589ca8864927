// Paper Section 5.2's text: each input relation in turn slowed 5x.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_slow_each_relation", argc, argv);
}
