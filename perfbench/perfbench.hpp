#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

/// \file perfbench.hpp
/// The benchmark's programs and per-layer probes. Every timing here is taken
/// by the benchmark around its own calls into a layer (benchsuite, hpl, clc,
/// clsim, coexec); the only figures read from the program are the counters
/// and simulated seconds that HPL::profile() reports.

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host CPU seconds consumed so far by every thread of the process: the
/// caller, the device queue workers and the VM thread pool.
inline double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

/// One program of a workload: an end-to-end HPL computation from fresh
/// host inputs to a result checked against a serial C++ reference.
struct Program {
  std::string name;
  /// Its one eval is co-executed across devices: the run's simulated
  /// kernel time is the dispatch's makespan, not the sum of its chunks.
  bool coexec = false;
  /// Runs once; returns false when the output is wrong.
  std::function<bool()> run;
};

/// The paper's applications from src/benchsuite. `small` selects the sizes
/// of the scenario grader's reduced sweep (the cold workload); otherwise the
/// benchsuite's default configs.
std::vector<Program> app_programs(std::uint64_t seed, bool small);
/// Chains of HPL pattern kernels the lazy DAG can fuse.
std::vector<Program> chain_programs(std::uint64_t seed);

struct Metric {
  std::string name, unit;
  double value;
};

/// Median per-stage clc times (microseconds), summed over the benchsuite's
/// OpenCL C kernels, each compiled by calling the clc stages in the order
/// clc::compile runs them.
std::vector<Metric> probe_clc(double budget_s);
/// clsim: wall-clock round trip of a one-item kernel launch, and VM
/// operations per host CPU second on a loop kernel, both through the clsim
/// host API.
std::vector<Metric> probe_clsim(double budget_s);
/// coexec: the guided scheduler planning a split over two weighted slots
/// with a launch callback that does no work.
std::vector<Metric> probe_coexec(double budget_s);

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_HPP
