// Paper Figure 8: DSE's gain over SEQ as a function of w_min.
// Declared in experiments.cc.

#include "experiments.h"

int main(int argc, char** argv) {
  return dqsched::bench::RunExperiment("bench_fig8_wmin_sweep", argc, argv);
}
