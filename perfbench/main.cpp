// perfbench: the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-out <file>] [--rev <text>]
//   perfbench --self-check
//
// Prints human-readable "# ..." lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Every workload prints every
// metric of the selected set; a per-layer metric of a layer the workload does
// not run reads 0. A printed result exits 0 (its "correct" field carries
// the verdict); a run that cannot produce a result exits non-zero.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "campaign_wl.hpp"
#include "common.hpp"
#include "kv.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py --self-test compares them).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},   {"get_p50_us", "us"},
    {"put_p50_us", "us"},   {"rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"get_p99_us", "us"},
    {"put_p99_us", "us"},
    {"loadgen.offered_per_s", "1/s"},
    {"loadgen.achieved_per_s", "1/s"},
    {"loadgen.late_p99_us", "us"},
    {"abd.read_phase_p50_us", "us"},
    {"abd.read_phase_p99_us", "us"},
    {"abd.write_phase_p50_us", "us"},
    {"abd.write_phase_p99_us", "us"},
    {"abd.between_phases_p50_us", "us"},
    {"abd.read_self_p50_us", "us"},
    {"abd.write_self_p50_us", "us"},
    {"cats.pre_read_p50_us", "us"},
    {"cats.pre_read_p99_us", "us"},
    {"cats.post_p50_us", "us"},
    {"cats.post_p99_us", "us"},
    {"abd.phase_sum_get_ratio", "ratio"},
    {"abd.phase_sum_put_ratio", "ratio"},
    {"trace.matched_ops", "count"},
    {"trace.get_p50_us", "us"},
    {"trace.put_p50_us", "us"},
    {"trace.overhead_get_ratio", "ratio"},
    {"trace.overhead_put_ratio", "ratio"},
    {"abd.msgs_per_op", "count"},
    {"abd.bytes_per_op", "B"},
    {"abd.nack_ratio", "ratio"},
    {"abd.retries_per_op", "count"},
    {"router.lookup_msgs_per_op", "count"},
    {"ring.view_msgs", "count"},
    {"maint.msgs_per_s", "1/s"},
    {"net.hop_p50_us", "us"},
    {"net.hop_p99_us", "us"},
    {"tcp.frames_per_op", "count"},
    {"tcp.bytes_sent_per_op", "B"},
    {"tcp.send_failures", "count"},
    {"tcp.reconnects", "count"},
    {"codec.encode_ns", "ns"},
    {"codec.decode_ns", "ns"},
    {"codec.compress_ratio", "ratio"},
    {"sched.executed_per_op", "count"},
    {"sched.steals_per_op", "count"},
    {"sched.stolen_per_steal", "count"},
    {"sched.parks_per_op", "count"},
    {"sched.wakes_per_op", "count"},
    {"sched.run_queue_depth_p99", "count"},
    {"proc.cpu_us_per_op", "us"},
    {"proc.ctx_switches_per_op", "count"},
    {"proc.threads", "count"},
    {"handler.client.busy_us_per_op", "us"},
    {"handler.node.busy_us_per_op", "us"},
    {"handler.abd.busy_us_per_op", "us"},
    {"handler.router.busy_us_per_op", "us"},
    {"handler.ring.busy_us_per_op", "us"},
    {"handler.fd.busy_us_per_op", "us"},
    {"handler.cyclon.busy_us_per_op", "us"},
    {"handler.bootstrap.busy_us_per_op", "us"},
    {"handler.net.busy_us_per_op", "us"},
    {"handler.timer.busy_us_per_op", "us"},
    {"handler.tap.busy_us_per_op", "us"},
    {"timer.fires_per_s", "1/s"},
    {"timer.late_p99_us", "us"},
    {"sim.steps_per_seed", "count"},
    {"sim.ns_per_step", "ns"},
    {"campaign.ops_per_seed", "count"},
    {"campaign.gen_us_per_seed", "us"},
    {"campaign.run_ms_p99", "ms"},
    {"campaign.seeds_per_s", "1/s"},
    {"lin.check_ms", "ms"},
    {"failed_ratio", "ratio"},
    {"get_samples", "count"},
    {"put_samples", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tcp-rf5-mixed|loop24-read95|sim-campaign> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] [--trace-out <file>] "
               "[--rev <text>]\n       perfbench --self-check\n");
  return 2;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string rev = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--self-check") {
        std::string why;
        if (!correctness_check_rejects_forgeries(&why)) {
          std::printf("self-check FAILED: %s\n", why.c_str());
          return 1;
        }
        std::printf("self-check ok: forged history and forged value rejected\n");
        return 0;
      } else if (a == "--workload") {
        opt.workload = next();
        have_workload = true;
      } else if (a == "--seed") {
        opt.seed = std::stoull(next());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(next());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string t = next();
        if (t != "0" && t != "1") return usage();
        opt.trace = t == "1";
        have_trace = true;
      } else if (a == "--smoke") {
        opt.smoke = true;
      } else if (a == "--trace-out") {
        opt.trace_out = next();
      } else if (a == "--rev") {
        rev = next();
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace || !(opt.seconds > 0)) {
    return usage();
  }
  if (!is_kv_workload(opt.workload) && opt.workload != "sim-campaign") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return usage();
  }

  Outcome out;
  try {
    out = opt.workload == "sim-campaign" ? run_campaign(opt) : run_kv(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  // Normalise to the declared metric set: every name present with its unit.
  Metrics final_metrics;
  auto take = [&](const MetricDef& d, bool required) {
    double v = 0;
    bool found = false;
    for (const auto& it : out.metrics.items()) {
      if (it.name != d.name) continue;
      found = true;
      if (it.unit != d.unit) {
        out.errors.push_back(std::string("metric ") + d.name + " has unit " + it.unit +
                             ", declared " + d.unit);
      }
      v = it.value;
    }
    if (!found && required) out.errors.push_back(std::string("metric ") + d.name + " missing");
    if (!std::isfinite(v)) {
      out.errors.push_back(std::string("metric ") + d.name + " is not finite");
      v = 0;
    }
    final_metrics.set(d.name, v, d.unit);
  };
  if (opt.trace) {
    for (const auto& d : kPerLayer) take(d, false);
  } else {
    for (const auto& d : kEndToEnd) take(d, true);
  }
  for (const auto& it : out.metrics.items()) {
    if (!final_metrics.has(it.name)) out.errors.push_back("undeclared metric " + it.name);
  }
  out.correct = out.correct && out.errors.empty();

  Meta meta = {{"workload", opt.workload},
               {"seed", std::to_string(opt.seed)},
               {"seconds", fmt(opt.seconds)},
               {"trace", opt.trace ? "1" : "0"},
               {"smoke", opt.smoke ? "1" : "0"},
               {"num_cpus", std::to_string(std::thread::hardware_concurrency())},
               {"rev", rev},
               {"build_type", PERFBENCH_BUILD_TYPE}};
  meta.insert(meta.end(), out.meta.begin(), out.meta.end());
  std::string meta_json = "{";
  for (std::size_t i = 0; i < meta.size(); ++i) {
    if (i != 0) meta_json += ", ";
    meta_json += "\"" + json_escape(meta[i].first) + "\": \"" + json_escape(meta[i].second) + "\"";
  }
  meta_json += "}";
  std::printf("# meta %s\n", meta_json.c_str());
  for (const auto& e : out.errors) std::printf("# error %s\n", e.c_str());
  for (const auto& it : final_metrics.items()) {
    std::printf("# %-36s %16.4f %s\n", it.name.c_str(), it.value, it.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& it : final_metrics.items()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + json_escape(it.name) + "\": {\"value\": " + fmt(it.value) + ", \"unit\": \"" +
            json_escape(it.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
