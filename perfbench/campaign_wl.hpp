#pragma once

#include "common.hpp"

namespace perfbench {

/// Sweeps consecutive campaign seeds for `opt.seconds` on one thread and
/// fails on any seed whose run is not ok.
Outcome run_campaign(const Options& opt);

}  // namespace perfbench
