// sim-campaign: the deterministic-simulation half of the system. Consecutive
// seeds of the start of the nightly sweep's range each go through
// testkit::generate_schedule and run_schedule(default_run_config()) inline on
// one thread: partitions, churn, timer skew, loss/dup/reorder, and the
// Wing & Gong check, every CATS handler on SimulatorCore. No scheduler
// threads, real timers, TCP or codec run here.

#include "campaign_wl.hpp"

#include <time.h>

#include <algorithm>

#include "testkit/campaign.hpp"
#include "testkit/fault_schedule.hpp"

namespace perfbench {
namespace {

using namespace kompics;

/// A run walks seeds [1, kSweepSeeds] (the start of the nightly sweep's
/// range [1, 2000]) consecutively from a start picked by --seed, wrapping.
/// Every run covers the block several times, so runs differ in where they
/// start, not in which schedules they time.
constexpr std::uint64_t kSweepSeeds = 250;

std::uint64_t nth_seed(std::uint64_t first, std::uint64_t i) {
  return (first - 1 + i) % kSweepSeeds + 1;
}

/// The join phase of a seed's schedule at the generator's largest cluster
/// size: the nodes join on its stagger and the run ends after its warm-up,
/// before any op.
testkit::FaultSchedule boot_only(std::uint64_t seed) {
  testkit::GeneratorConfig gen;
  gen.min_nodes = gen.max_nodes;
  testkit::FaultSchedule s = testkit::generate_schedule(seed, gen);
  TimeMs last_join = 0;
  std::vector<testkit::ScheduleEvent> joins;
  for (const auto& e : s.events) {
    if (e.kind != testkit::ScheduleEvent::Kind::kJoin) break;
    joins.push_back(e);
    last_join = e.at;
  }
  s.events = std::move(joins);
  s.horizon = last_join + gen.warmup_ms;
  return s;
}

/// CPU time of the calling thread. The sweep runs on one thread that never
/// waits, so on an idle host this equals wall time; unlike wall time it
/// leaves out the time the host's other tenants take the CPU away.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL + static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

Outcome run_campaign(const Options& opt) {
  Outcome out;
  const testkit::RunConfig config = testkit::default_run_config();
  const std::uint64_t first = (opt.seed * 97) % kSweepSeeds + 1;
  out.meta.emplace_back("sweep_range", "[1," + std::to_string(kSweepSeeds) + "]");
  out.meta.emplace_back("first_seed", std::to_string(first));
  out.meta.emplace_back("run_config", "testkit::default_run_config()");

  // Set-up: boot a cluster to readiness in virtual time. The same schedule
  // on every run, so set-up time does not depend on where the sweep starts.
  // Set-up and per-seed times are thread CPU time; the sweep's length is
  // wall time.
  const std::size_t setups = opt.smoke ? 1 : 9;
  const testkit::FaultSchedule boot = boot_only(1);
  std::vector<double> setup_samples;
  for (std::size_t i = 0; i < setups; ++i) {
    const std::uint64_t t0 = thread_cpu_ns();
    const testkit::RunResult r = testkit::run_schedule(boot, config);
    setup_samples.push_back(static_cast<double>(thread_cpu_ns() - t0) / 1e9);
    if (!r.ok) out.errors.push_back("boot-only schedule failed: " + r.failure);
  }

  std::vector<double> seed_us, gen_us, run_ms, seed_ops_per_s;
  double total_ops = 0, total_steps = 0, run_ns = 0;
  std::uint64_t failing = 0;
  const std::uint64_t t0 = now_ns();
  const auto budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::uint64_t i = 0;
  while (now_ns() - t0 < budget_ns) {
    const std::uint64_t seed = nth_seed(first, i++);
    const std::uint64_t a = thread_cpu_ns();
    const testkit::FaultSchedule schedule = testkit::generate_schedule(seed);
    const std::uint64_t b = thread_cpu_ns();
    const testkit::RunResult r = testkit::run_schedule(schedule, config);
    const std::uint64_t c = thread_cpu_ns();
    gen_us.push_back(static_cast<double>(b - a) / 1e3);
    run_ms.push_back(static_cast<double>(c - b) / 1e6);
    seed_us.push_back(static_cast<double>(c - a) / 1e3);
    seed_ops_per_s.push_back(static_cast<double>(r.ops) * 1e9 / static_cast<double>(c - a));
    run_ns += static_cast<double>(c - b);
    total_ops += static_cast<double>(r.ops);
    total_steps += static_cast<double>(r.steps);
    if (!r.ok) {
      ++failing;
      if (out.errors.size() < 3) {
        out.errors.push_back("seed " + std::to_string(seed) + " failed: " + r.failure);
      }
    }
  }
  const double elapsed = seconds_since(t0);
  const double seeds = static_cast<double>(seed_us.size());
  out.attempted = seed_us.size();
  out.failed = failing;
  out.meta.emplace_back("seeds", std::to_string(seed_us.size()));
  double cpu_s = 0;
  for (double us : seed_us) cpu_s += us / 1e6;
  out.meta.emplace_back("seeds_per_wall_s", std::to_string(seeds / elapsed));
  out.meta.emplace_back("seeds_per_cpu_s", std::to_string(seeds / cpu_s));

  Metrics& m = out.metrics;
  if (!opt.trace) {
    // A seed run is this workload's unit of work: the latency metrics are
    // its time (generate + run) for gets and puts alike, and ops_per_s is
    // the median over seeds of simulated ops per second. All in thread CPU
    // time (see thread_cpu_ns).
    m.set("setup_s", median(setup_samples), "s");
    m.set("ops_per_s", median(seed_ops_per_s), "1/s");
    m.set("get_p50_us", quantile(seed_us, 0.50), "us");
    m.set("put_p50_us", quantile(seed_us, 0.50), "us");
    m.set("rss_mb", peak_rss_mb(), "MB");
  } else {
    m.set("get_p99_us", quantile(seed_us, 0.99), "us");
    m.set("put_p99_us", quantile(seed_us, 0.99), "us");
    m.set("sim.steps_per_seed", total_steps / seeds, "count");
    m.set("sim.ns_per_step", total_steps > 0 ? run_ns / total_steps : 0, "ns");
    m.set("campaign.ops_per_seed", total_ops / seeds, "count");
    double gen_sum = 0;
    for (double g : gen_us) gen_sum += g;
    m.set("campaign.gen_us_per_seed", gen_sum / seeds, "us");
    m.set("campaign.run_ms_p99", quantile(run_ms, 0.99), "ms");
    m.set("campaign.seeds_per_s", seeds / cpu_s, "1/s");
    m.set("failed_ratio", static_cast<double>(failing) / seeds, "ratio");
    m.set("proc.threads", thread_count(), "count");
  }
  out.correct = out.errors.empty();
  return out;
}

}  // namespace perfbench
