#ifndef CEAFF_PERFBENCH_PIPELINE_OPTIONS_H_
#define CEAFF_PERFBENCH_PIPELINE_OPTIONS_H_

#include <cstddef>

#include "ceaff/core/pipeline.h"

namespace perfbench {

/// The options `ceaff align` runs with when given no flags but --threads,
/// so the benchmark times what a CLI user waits for.
inline ceaff::core::CeaffOptions CliAlignOptions(size_t threads) {
  ceaff::core::CeaffOptions options;
  options.gcn.dim = 128;
  options.gcn.epochs = 200;
  options.gcn.learning_rate = 1.0f;
  options.fusion.theta1 = 0.98;
  options.fusion.theta2 = 0.1;
  options.num_threads = threads;
  return options;
}

}  // namespace perfbench

#endif  // CEAFF_PERFBENCH_PIPELINE_OPTIONS_H_
