#ifndef HPLREPRO_SCENARIO_SCENARIO_HPP
#define HPLREPRO_SCENARIO_SCENARIO_HPP

/// \file scenario.hpp
/// Grader-style scenario matrix (ROADMAP item 5; cf. the lc3tools grader):
/// enumerates every configuration the runtime actually exposes —
///
///   device {CPU, Tesla, Quadro} × sync {HPL_SYNC=0,1} ×
///   interpreter {-cl-interp=stack, threaded} ×
///   opt {-O0,-O2} × fusion {-cl-fusion=on,off} × size
///
/// — runs every benchsuite workload (the five paper benchmarks plus the
/// stencil family) through each cell, and grades three things per run:
///
///   1. *Correctness*: the HPL result matches the serial reference within
///      the workload's declared tolerance.
///   2. *Profile identity*: cache hits + misses == launches, launches ==
///      the workload's declared count, and — across the sync × interpreter
///      variants of one (device, opt, size) — bit-identical outputs and
///      identical simulated time, ops and bytes. Outputs are additionally
///      bit-identical across -O0/-O2 (the optimizer contract).
///   3. *Perf envelope*: simulated kernel time within generous roofline
///      bounds derived from the workload's declared flop/byte counts and
///      the device spec, and launch overhead exactly launches × spec.
///
/// The grader is self-testing: grader_catches_sabotage() runs a blur whose
/// edge policy deliberately disagrees with its reference and reports
/// whether the correctness grade catches it.

#include <cstdint>
#include <string>
#include <vector>

namespace hplrepro::scenario {

/// The matrix axes. `async_modes` uses the HPL_SYNC convention of the
/// runtime: true = asynchronous pipeline (HPL_SYNC=0), false = forced
/// synchronous (HPL_SYNC=1).
struct Axes {
  std::vector<std::string> devices = {"CPU", "Tesla", "Quadro"};
  std::vector<bool> async_modes = {true, false};
  /// The stack reference interpreter and the register (work-group) VM:
  /// observationally identical, which the profile-identity grade enforces.
  std::vector<std::string> interps = {"stack", "threaded"};
  std::vector<std::string> opts = {"-O0", "-O2"};
  /// Lazy-DAG kernel fusion on/off (the "-cl-fusion" build option). The
  /// benchsuite kernels are all fusion-ineligible (multi-statement), so
  /// this axis grades *observational neutrality*: recording evals on the
  /// DAG and launching them at forcing points must change nothing a cell
  /// can see. The fused-vs-unfused deltas live in run_fusion_axis().
  std::vector<bool> fusion_modes = {true, false};
  std::vector<std::string> sizes = {"small", "large"};

  /// The full matrix: 3 × 2 × 2 × 2 × 2 × 2 = 96 cells.
  static Axes full();
  /// The reduced matrix for ctest/CI: small sizes only (48 cells).
  static Axes reduced();

  std::size_t cell_count() const {
    return devices.size() * async_modes.size() * interps.size() *
           opts.size() * fusion_modes.size() * sizes.size();
  }
};

/// One point of the matrix.
struct Cell {
  std::string device;
  bool async = true;
  std::string interp;
  std::string opt;
  std::string size;
  bool fusion = true;

  /// "Tesla/async/stack/-O2/small/fused" — stable id used in reports.
  std::string label() const;
  /// The clBuildProgram-style options string the cell runs under.
  std::string build_options() const;
};

/// The grade of one workload in one cell. An empty `failures` is a pass.
struct WorkloadGrade {
  std::string workload;
  bool skipped = false;       // device lacks a capability (EP w/o doubles)
  std::string skip_reason;

  // Correctness observations.
  std::uint64_t output_hash = 0;  // FNV-1a over the normalized output
  double max_error = 0;           // worst |ref - got|
  double tolerance = 0;           // hybrid bound at the worst element

  // Profile observations.
  std::uint64_t launches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t global_bytes = 0;
  std::uint64_t ops = 0;
  double kernel_sim_seconds = 0;
  double launch_sim_seconds = 0;

  // Perf envelope actually applied.
  double roofline_lower = 0;
  double roofline_upper = 0;

  std::vector<std::string> failures;
  bool passed() const { return !skipped && failures.empty(); }
};

struct CellReport {
  Cell cell;
  std::vector<WorkloadGrade> grades;
  bool passed() const;
};

struct SweepReport {
  Axes axes;
  std::vector<CellReport> cells;
  /// Cross-variant identity violations (sync × interp × opt groups).
  std::vector<std::string> identity_failures;
  std::size_t graded = 0;
  std::size_t passed = 0;
  std::size_t failed = 0;
  std::size_t skipped = 0;

  bool ok() const { return failed == 0 && identity_failures.empty(); }
};

/// One grade of the co-execution axis: a workload NDRange split across a
/// device set under one scheduling policy, checked bit-identical against
/// the single-device run and reconciled against the dispatcher's chunk
/// plan (launches == chunks, hits + misses == launches, misses == devices
/// that actually received work, contiguous exact coverage).
struct CoexecGrade {
  std::string workload;       // reduction / transpose / jacobi
  std::string policy;         // static / dynamic / guided
  int device_count = 2;       // size of the device set
  std::uint64_t chunks = 0;
  std::uint64_t launches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::string> failures;
  bool passed() const { return failures.empty(); }
};

/// Runs the co-execution axis: {reduction, transpose, jacobi} x
/// {static, dynamic, guided} x device sets {2: Tesla+Quadro,
/// 3: +host CPU} — 18 grades.
std::vector<CoexecGrade> run_coexec_axis();

/// One grade of the fusion axis: a chained pattern program (the kernels
/// the rewrite rules actually fire on) run unfused and fused, checked
/// bit-identical, profile-reconciled (hits + misses == launches in both
/// modes), and graded on its deltas: a chained program must save launches
/// and global-memory traffic; a control program (multi-statement kernels)
/// must be untouched by the rewriter.
struct FusionGrade {
  std::string program;
  bool chained = true;  // expected to fuse; false = ineligible control
  std::uint64_t unfused_launches = 0;
  std::uint64_t fused_launches = 0;
  std::uint64_t launches_saved = 0;
  std::uint64_t unfused_bytes = 0;  // global-memory traffic (kernel registry)
  std::uint64_t fused_bytes = 0;
  double unfused_sim_seconds = 0;
  double fused_sim_seconds = 0;
  bool bit_identical = false;
  std::vector<std::string> failures;
  bool passed() const { return failures.empty(); }
};

/// Runs the fusion axis: chained pattern programs (map chains, map→reduce,
/// two producers→dot, a dead temporary) plus a fusion-ineligible control,
/// each run unfused then fused.
std::vector<FusionGrade> run_fusion_axis();

/// The workloads the sweep grades, in run order: the five paper benchmarks
/// plus blur, sobel and jacobi.
std::vector<std::string> workload_names();

/// Runs the whole matrix. Restores async mode and build options on exit.
SweepReport run_sweep(const Axes& axes);

/// Self-test: grades a blur whose kernel runs a different boundary policy
/// than its reference; returns true iff the grader flags the mismatch
/// (and no legitimate grade rule is what caught it — only correctness).
bool grader_catches_sabotage();

/// Renders the report as JSON (schema "hplrepro-scenario-v1").
/// `sabotage_caught` < 0 omits the self-test block, else 0/1. When
/// `coexec` (resp. `fusion`) is non-null its grades are embedded as a
/// top-level "coexec" (resp. "fusion") array and any failures are folded
/// into summary.ok.
std::string report_json(const SweepReport& report, int sabotage_caught = -1,
                        const std::vector<CoexecGrade>* coexec = nullptr,
                        const std::vector<FusionGrade>* fusion = nullptr);

}  // namespace hplrepro::scenario

#endif  // HPLREPRO_SCENARIO_SCENARIO_HPP
