//===- obs/obs_config.cpp -------------------------------------------------===//

#include "obs/obs_config.h"

using namespace gillian::obs;

ObsConfig::State &ObsConfig::S() {
  static State St;
  return St;
}

void ObsConfig::set(const ObsOptions &O) {
  State &St = S();
  St.Timing.store(O.Timing, std::memory_order_relaxed);
  St.DetailedSpans.store(O.DetailedSpans, std::memory_order_relaxed);
}

ObsOptions ObsConfig::get() {
  ObsOptions O;
  O.Timing = timing();
  O.DetailedSpans = detailedSpans();
  return O;
}
