// The sharded mediator fleet under an open-loop Poisson stream.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_fleet", argc, argv);
}
