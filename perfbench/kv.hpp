#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// True for the key-value workloads run_kv() knows.
bool is_kv_workload(const std::string& name);

/// Boots a CATS cluster for `opt.workload`, seeds its keys, drives the
/// workload for `opt.seconds` and checks the recorded history. With
/// `opt.trace` it measures an untraced cluster and then a traced one and
/// returns the per-layer metrics; otherwise the end-to-end ones.
Outcome run_kv(const Options& opt);

/// Benchmark self-check: the history check must reject a hand-forged
/// non-linearizable history and a value that was never written. Returns
/// false (with the reason) when either slips through.
bool correctness_check_rejects_forgeries(std::string* why);

}  // namespace perfbench
