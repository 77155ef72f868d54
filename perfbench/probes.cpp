// Per-layer probes for the layers below hpl. Each probe drives one layer
// through its own public interface and times the calls from here.

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "benchsuite/ep.hpp"
#include "benchsuite/floyd.hpp"
#include "benchsuite/reduction.hpp"
#include "benchsuite/spmv.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "clc/ast.hpp"
#include "clc/bytecode.hpp"
#include "clc/codegen.hpp"
#include "clc/diagnostics.hpp"
#include "clc/lexer.hpp"
#include "clc/optimizer.hpp"
#include "clc/parser.hpp"
#include "clc/preprocessor.hpp"
#include "clc/sema.hpp"
#include "clc/wgloops.hpp"
#include "clsim/runtime.hpp"
#include "coexec/coexec.hpp"
#include "perfbench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

namespace {

namespace bs = hplrepro::benchsuite;
namespace clc = hplrepro::clc;

// The stages in the order clc::compile runs them (default build options:
// -O2, register lowering, work-group loops).
constexpr const char* kStages[] = {"preprocess", "lex",      "parse", "sema",
                                   "bytecode",   "optimize", "lower"};
constexpr int kStageCount = 7;
using StageSamples = std::array<std::vector<double>, kStageCount>;

void compile_staged(std::string_view source, StageSamples& out) {
  clc::DiagnosticSink diags;
  auto t0 = Clock::now();
  int stage = 0;
  const auto lap = [&] {
    if (diags.has_errors()) throw clc::CompileError(diags.log());
    const auto now = Clock::now();
    out[stage++].push_back(
        std::chrono::duration<double, std::micro>(now - t0).count());
    t0 = now;
  };
  const clc::PreprocessResult pre = clc::preprocess(source, diags);
  lap();
  clc::Lexer lexer(pre.text, diags);
  std::vector<clc::Token> tokens =
      clc::expand_macros(lexer.lex_all(), pre.macros, diags);
  lap();
  clc::TranslationUnit unit = clc::Parser(std::move(tokens), diags).parse();
  lap();
  clc::Sema(unit, diags).run();
  lap();
  clc::Module module = clc::generate_bytecode(unit);
  lap();
  clc::optimize_module(module, clc::OptLevel::O2);
  lap();
  if (clc::lower_module(module).empty()) clc::analyze_wg_loops(module);
  lap();
}

constexpr const char* kClsimProbeSource = R"CLC(
__kernel void touch(__global float* out) {
  out[get_global_id(0)] = 1.0f;
}
__kernel void spin(__global float* out, uint n) {
  size_t i = get_global_id(0);
  float acc = (float)i;
  for (uint k = 0u; k < n; k++) {
    acc = acc * 0.5f + 1.0f;
  }
  out[i] = acc;
}
)CLC";

}  // namespace

std::vector<Metric> probe_clc(double budget_s) {
  // The OpenCL C versions of the applications the workloads run.
  const char* const sources[] = {
      bs::ep_kernel_source(),        bs::floyd_kernel_source(),
      bs::transpose_kernel_source(), bs::spmv_kernel_source(),
      bs::reduction_kernel_source(), bs::jacobi_kernel_source()};
  std::vector<StageSamples> samples(std::size(sources));
  const auto start = Clock::now();
  for (int round = 0; round < 5 || seconds_since(start) < budget_s; ++round) {
    for (std::size_t i = 0; i < std::size(sources); ++i) {
      compile_staged(sources[i], samples[i]);
    }
  }
  std::vector<Metric> out;
  for (int s = 0; s < kStageCount; ++s) {
    double sum = 0;
    for (const StageSamples& k : samples) sum += median(k[s]);
    out.push_back({std::string("clc_") + kStages[s] + "_us", "us", sum});
  }
  return out;
}

std::vector<Metric> probe_clsim(double budget_s) {
  namespace clsim = hplrepro::clsim;
  clsim::Context context(clsim::Platform::get().default_accelerator());
  clsim::CommandQueue queue(context);
  clsim::Program program(context, kClsimProbeSource);
  program.build();
  clsim::Kernel touch(program, "touch");
  clsim::Kernel spin(program, "spin");
  constexpr std::size_t kItems = 4096;
  clsim::Buffer buffer(context, kItems * sizeof(float));
  touch.set_arg(0, buffer);
  spin.set_arg(0, buffer);
  spin.set_arg(1, static_cast<std::uint32_t>(64));

  std::vector<double> launch_us, mops;
  auto start = Clock::now();
  while (launch_us.size() < 20 || seconds_since(start) < budget_s / 2) {
    const auto t0 = Clock::now();
    queue.enqueue_ndrange_kernel(touch, clsim::NDRange(1)).wait();
    launch_us.push_back(seconds_since(t0) * 1e6);
  }
  start = Clock::now();
  while (mops.size() < 5 || seconds_since(start) < budget_s / 2) {
    const double c0 = cpu_seconds();
    clsim::Event event = queue.enqueue_ndrange_kernel(
        spin, clsim::NDRange(kItems), clsim::NDRange(64));
    event.wait();
    const double cpu = cpu_seconds() - c0;
    mops.push_back(static_cast<double>(event.stats().total_ops()) / cpu /
                   1e6);
  }
  return {{"clsim_launch_us", "us", median(launch_us)},
          {"clsim_vm_mops", "Mop/s", median(mops)}};
}

std::vector<Metric> probe_coexec(double budget_s) {
  namespace coexec = hplrepro::coexec;
  // Two slots 40x apart in speed, like the simulated Tesla + Quadro pair;
  // each chunk "takes" its modeled time without doing any work.
  const std::vector<double> weights = {40.0, 1.0};
  const coexec::LaunchFn launch = [](const coexec::Chunk& chunk) {
    const double seconds =
        static_cast<double>(chunk.count) * (chunk.slot == 0 ? 1e-6 : 40e-6);
    return std::function<double()>([seconds] { return seconds; });
  };
  std::vector<double> plan_us;
  const auto start = Clock::now();
  while (plan_us.size() < 20 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    coexec::dispatch(coexec::Policy::Guided, 4096, 2, launch, weights);
    plan_us.push_back(seconds_since(t0) * 1e6);
  }
  return {{"coexec_plan_us", "us", median(plan_us)}};
}

}  // namespace perfbench
