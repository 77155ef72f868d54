// perfbench: end-to-end and per-layer performance of HPL programs.
//
//   perfbench --workload apps|chains|cold --seed N --seconds S --trace 0|1
//
// One closed-loop client runs the workload's programs round-robin (a fresh
// seeded order each round) for S seconds. Every run's output is checked
// against a serial reference. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
//
// Workloads:
//   apps    the benchsuite applications at their default sizes with a warm
//           kernel cache: each eval is a cache hit, time goes to dispatch,
//           transfers and simulated execution;
//   chains  pattern-kernel chains on the lazy DAG: fusion rewrites collapse
//           launches (the applications' multi-statement kernels never fuse);
//   cold    the applications at the scenario grader's small sizes from an
//           empty kernel cache each run: every run pays capture, OpenCL C
//           generation and the build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "coexec/coexec.hpp"
#include "hpl/HPL.h"
#include "perfbench.hpp"
#include "support/prng.hpp"

namespace {

using namespace perfbench;

// Set-up passes per run; setup_s is their median.
constexpr int kSetupPasses = 11;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool seen[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      seen[1] = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      seen[2] = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
      seen[3] = args.trace || std::string(value) == "0";
    } else {
      return false;
    }
  }
  return argc == 9 && seen[0] && seen[1] && seen[2] && seen[3] &&
         (args.workload == "apps" || args.workload == "chains" ||
          args.workload == "cold");
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// One program run: host CPU and wall seconds, and the simulated and
/// simulating seconds HPL::profile() counted for it.
struct Sample {
  double cpu_s = 0, wall_s = 0;
  double kernel_sim_s = 0, transfer_sim_s = 0, sim_wall_s = 0;
};

struct Counters {
  double launches = 0, hits = 0, h2d_bytes = 0, vm_ops = 0;
};

Counters read_counters() {
  const HPL::ProfileSnapshot p = HPL::profile();
  Counters c;
  c.launches = static_cast<double>(p.kernel_launches);
  c.hits = static_cast<double>(p.kernel_cache_hits);
  c.h2d_bytes = static_cast<double>(p.bytes_to_device);
  for (const HPL::KernelProfile& k : HPL::kernel_profiles()) {
    c.vm_ops += static_cast<double>(k.ops);
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload apps|chains|cold --seed N "
                 "--seconds S --trace 0|1\n";
    return 2;
  }
  try {
    // Platform and runtime start-up happen once per process, untimed.
    HPL::profile();

    const bool cold = args.workload == "cold";
    std::vector<Program> programs = args.workload == "chains"
                                        ? chain_programs(args.seed)
                                        : app_programs(args.seed, cold);

    std::uint64_t attempted = 0, failed = 0;
    // A run's time ends when profile() has quiesced every device queue, so
    // it includes all the device work the run caused.
    const auto run_checked = [&](Program& program) {
      ++attempted;
      const HPL::ProfileSnapshot p0 = HPL::profile();
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      try {
        if (!program.run()) {
          ++failed;
          std::cerr << program.name << ": wrong output\n";
        }
      } catch (const std::exception& e) {
        ++failed;
        std::cerr << program.name << ": " << e.what() << "\n";
      }
      const HPL::ProfileSnapshot p1 = HPL::profile();
      Sample s;
      s.cpu_s = cpu_seconds() - c0;
      s.wall_s = seconds_since(t0);
      s.kernel_sim_s =
          program.coexec ? hplrepro::coexec::last_dispatch().makespan()
                         : p1.kernel_sim_seconds - p0.kernel_sim_seconds;
      s.transfer_sim_s = p1.transfer_sim_seconds - p0.transfer_sim_seconds;
      s.sim_wall_s = p1.sim_wall_seconds - p0.sim_wall_seconds;
      return s;
    };

    // Set-up: one pass over every program from an empty kernel cache
    // (what a process pays before it reaches steady state).
    std::vector<double> setup_s;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
      HPL::purge_kernel_cache();
      double cpu = 0;
      for (Program& program : programs) cpu += run_checked(program).cpu_s;
      setup_s.push_back(cpu);
    }

    // Measurement: closed loop, one client, fresh seeded order each round.
    std::vector<std::vector<Sample>> samples(programs.size());
    std::vector<std::size_t> order(programs.size());
    std::iota(order.begin(), order.end(), 0);
    hplrepro::SplitMix64 order_rng(args.seed);
    const Counters before = read_counters();
    const auto start = Clock::now();
    while (seconds_since(start) < args.seconds) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.next_below(i)]);
      }
      for (const std::size_t i : order) {
        if (cold) HPL::purge_kernel_cache();
        samples[i].push_back(run_checked(programs[i]));
      }
    }
    const Counters after = read_counters();

    // Per program, the median (or p90) of a per-run figure; then the
    // geometric mean over programs.
    const auto over_programs = [&](double (*field)(const Sample&), double q) {
      std::vector<double> per_program;
      for (const std::vector<Sample>& runs : samples) {
        std::vector<double> v;
        for (const Sample& s : runs) v.push_back(field(s));
        per_program.push_back(quantile(v, q));
      }
      return geomean(per_program);
    };
    const auto cpu_ms = [](const Sample& s) { return s.cpu_s * 1e3; };
    const auto sim_ms = [](const Sample& s) {
      return (s.kernel_sim_s + s.transfer_sim_s) * 1e3;
    };

    std::size_t loop_runs = 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      loop_runs += samples[i].size();
      std::vector<double> cpu, wall;
      for (const Sample& s : samples[i]) {
        cpu.push_back(cpu_ms(s));
        wall.push_back(s.wall_s * 1e3);
      }
      std::cerr << programs[i].name << ": runs " << samples[i].size()
                << ", cpu median " << median(cpu) << " ms, p90 "
                << quantile(cpu, 0.9) << " ms; wall median " << median(wall)
                << " ms; sim " << sim_ms(samples[i].front()) << " ms\n";
    }
    std::cerr << "setup passes (cpu s):";
    for (const double s : setup_s) std::cerr << " " << s;
    std::cerr << "\n";

    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {{"cpu_ms", "ms", over_programs(cpu_ms, 0.5)},
                 {"cpu_p90_ms", "ms", over_programs(cpu_ms, 0.9)},
                 {"sim_ms", "ms", over_programs(sim_ms, 0.5)},
                 {"setup_s", "s", median(setup_s)}};
    } else {
      // Per-layer figures: means per run over every run of the loop.
      const double runs = static_cast<double>(loop_runs);
      Sample total;
      for (const std::vector<Sample>& program_runs : samples) {
        for (const Sample& s : program_runs) {
          total.wall_s += s.wall_s;
          total.kernel_sim_s += s.kernel_sim_s;
          total.transfer_sim_s += s.transfer_sim_s;
          total.sim_wall_s += s.sim_wall_s;
        }
      }
      const double launches = after.launches - before.launches;
      metrics = {
          {"hpl_host_us", "us", (total.wall_s - total.sim_wall_s) / runs * 1e6},
          {"clsim_sim_wall_us", "us", total.sim_wall_s / runs * 1e6},
          {"kernel_sim_us", "us", total.kernel_sim_s / runs * 1e6},
          {"transfer_sim_us", "us", total.transfer_sim_s / runs * 1e6},
          {"launches_per_run", "count", launches / runs},
          {"cache_hit_ratio", "ratio", (after.hits - before.hits) / launches},
          {"h2d_bytes_per_run", "B",
           (after.h2d_bytes - before.h2d_bytes) / runs},
          {"vm_ops_per_run", "count", (after.vm_ops - before.vm_ops) / runs}};
      for (auto probe :
           {probe_clc(2.0), probe_clsim(1.0), probe_coexec(0.5)}) {
        metrics.insert(metrics.end(), probe.begin(), probe.end());
      }
    }

    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        throw std::runtime_error("metric " + m.name + " is not finite");
      }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
