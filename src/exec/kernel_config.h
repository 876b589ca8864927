// Kernel selection knobs, plumbed from the mediator/multi-query configs
// down into every FragmentSpec. Split out of chain_executor.h so config
// structs in src/core can name it without pulling in the executor.

#ifndef DQSCHED_EXEC_KERNEL_CONFIG_H_
#define DQSCHED_EXEC_KERNEL_CONFIG_H_

namespace dqsched::exec {

/// Which operator kernels a fragment runs. Both produce byte-identical
/// simulated metrics (DESIGN §10's determinism contract); the choice only
/// moves host wall time.
struct KernelConfig {
  /// Tuple-at-a-time reference kernels (the pre-vectorization executor,
  /// kept as the equivalence oracle and for A/B benchmarking).
  bool scalar = false;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_KERNEL_CONFIG_H_
