// The scenario grader graded: the reduced matrix must come back clean
// (every workload correct, every profile reconciled, every run inside its
// envelope, full cross-variant identity), the JSON scorecard must carry
// the schema CI validates, and — the grader's own acceptance test — a
// kernel with a deliberately wrong boundary policy must be caught.

#include <gtest/gtest.h>

#include "clsim/runtime.hpp"
#include "hpl/fusion.hpp"
#include "hpl/runtime.hpp"
#include "scenario/scenario.hpp"

namespace scenario = hplrepro::scenario;
namespace clsim = hplrepro::clsim;

namespace {

TEST(ScenarioGrader, WorkloadRegistryCoversBenchsuiteAndStencils) {
  const std::vector<std::string> names = scenario::workload_names();
  const std::vector<std::string> expected = {
      "ep", "floyd", "transpose", "spmv", "reduction",
      "blur", "sobel", "jacobi"};
  EXPECT_EQ(names, expected);
}

TEST(ScenarioGrader, CellLabelAndBuildOptions) {
  const scenario::Cell cell{"Tesla", false, "threaded", "-O0", "small",
                            true};
  EXPECT_EQ(cell.label(), "Tesla/sync/threaded/-O0/small/fused");
  EXPECT_EQ(cell.build_options(), "-O0 -cl-interp=threaded -cl-fusion=on");

  const scenario::Cell stack{"Quadro", true, "stack", "-O2", "small",
                             false};
  EXPECT_EQ(stack.label(), "Quadro/async/stack/-O2/small/nofuse");
  EXPECT_EQ(stack.build_options(), "-O2 -cl-interp=stack -cl-fusion=off");
}

TEST(ScenarioGrader, ReducedMatrixGradesClean) {
  const scenario::Axes axes = scenario::Axes::reduced();
  // 3 devices x 2 sync x 2 interp x 2 opt x 2 fusion
  ASSERT_EQ(axes.cell_count(), 48u);

  const scenario::SweepReport report = scenario::run_sweep(axes);

  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cells.size(), 48u);
  // 48 cells x 8 workloads, minus EP on the 16 Quadro cells (no doubles).
  EXPECT_EQ(report.graded, 368u);
  EXPECT_EQ(report.passed, 368u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.skipped, 16u);
  EXPECT_TRUE(report.identity_failures.empty());

  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.passed()) << cell.cell.label();
    for (const auto& grade : cell.grades) {
      if (grade.skipped) {
        EXPECT_EQ(grade.workload, "ep");
        EXPECT_EQ(cell.cell.device, "Quadro");
        continue;
      }
      EXPECT_TRUE(grade.failures.empty())
          << cell.cell.label() << " " << grade.workload << ": "
          << grade.failures.front();
      EXPECT_NE(grade.output_hash, 0u);
      EXPECT_GE(grade.launches, 1u);
      EXPECT_EQ(grade.cache_misses, 1u);
      EXPECT_EQ(grade.cache_hits + grade.cache_misses, grade.launches);
      EXPECT_GT(grade.kernel_sim_seconds, 0.0);
    }
  }
}

TEST(ScenarioGrader, SweepRestoresRuntimeConfiguration) {
  clsim::set_async_enabled(true);
  HPL::set_kernel_build_options("-O2");
  HPL::set_fusion_enabled(false);  // the cells toggle it; guard restores

  scenario::Axes axes = scenario::Axes::reduced();
  axes.devices = {"Tesla"};  // one device is enough to exercise the guard
  (void)scenario::run_sweep(axes);

  EXPECT_TRUE(clsim::async_enabled());
  EXPECT_EQ(HPL::kernel_build_options(), "-O2");
  EXPECT_FALSE(HPL::fusion_enabled());
  HPL::set_kernel_build_options("");
  HPL::set_fusion_enabled(true);
}

TEST(ScenarioGrader, JsonReportCarriesSchemaAndSummary) {
  scenario::Axes axes = scenario::Axes::reduced();
  axes.devices = {"Tesla"};
  axes.opts = {"-O2"};
  const scenario::SweepReport report = scenario::run_sweep(axes);
  const std::string json = scenario::report_json(report, 1);

  EXPECT_NE(json.find("\"schema\": \"hplrepro-scenario-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"cells\": ["), std::string::npos);
  EXPECT_NE(json.find("Tesla/async/stack/-O2/small/fused"),
            std::string::npos);
  EXPECT_NE(json.find("Tesla/async/stack/-O2/small/nofuse"),
            std::string::npos);
  EXPECT_NE(json.find("\"self_test\": {\"sabotage_caught\": true}"),
            std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  // Omitting the self-test block is the -1 contract.
  EXPECT_EQ(scenario::report_json(report).find("self_test"),
            std::string::npos);
  // Omitting the top-level fusion array is the nullptr contract (the axes
  // block's "fusion" mode list is always present, hence the indent anchor).
  EXPECT_EQ(json.find("\n  \"fusion\": ["), std::string::npos);
}

// The fusion axis: chained pattern programs must save launches and global
// traffic bit-identically, the multi-statement control must be untouched,
// and the chained corpus must clear the 25% launch-reduction acceptance
// bar the CI bench gates on.
TEST(ScenarioGrader, FusionAxisGradesClean) {
  const std::vector<scenario::FusionGrade> grades =
      scenario::run_fusion_axis();
  ASSERT_GE(grades.size(), 5u);

  std::uint64_t chained_unfused = 0, chained_fused = 0;
  std::size_t controls = 0;
  for (const auto& g : grades) {
    EXPECT_TRUE(g.passed())
        << g.program << ": " << g.failures.front();
    EXPECT_TRUE(g.bit_identical) << g.program;
    if (g.chained) {
      EXPECT_GE(g.launches_saved, 1u) << g.program;
      EXPECT_LT(g.fused_bytes, g.unfused_bytes) << g.program;
      chained_unfused += g.unfused_launches;
      chained_fused += g.fused_launches;
    } else {
      ++controls;
      EXPECT_EQ(g.launches_saved, 0u) << g.program;
      EXPECT_EQ(g.fused_bytes, g.unfused_bytes) << g.program;
    }
  }
  EXPECT_GE(controls, 1u);
  ASSERT_GT(chained_unfused, 0u);
  const double reduction =
      1.0 - static_cast<double>(chained_fused) /
                static_cast<double>(chained_unfused);
  EXPECT_GE(reduction, 0.25);

  // The grades embed as a top-level "fusion" array folded into summary.ok.
  scenario::Axes axes = scenario::Axes::reduced();
  axes.devices = {"Tesla"};
  axes.opts = {"-O2"};
  axes.interps = {"stack"};
  const scenario::SweepReport report = scenario::run_sweep(axes);
  const std::string json =
      scenario::report_json(report, -1, nullptr, &grades);
  EXPECT_NE(json.find("\n  \"fusion\": ["), std::string::npos);
  EXPECT_NE(json.find("\"program\": \"map_chain\""), std::string::npos);
  EXPECT_NE(json.find("\"fusion_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
}

// The acceptance criterion for the grader itself: a deliberately broken
// kernel (blur graded against a reference with a different edge policy)
// must be flagged — and only by the correctness rule.
TEST(ScenarioGrader, SabotagedBoundaryPolicyIsCaught) {
  EXPECT_TRUE(scenario::grader_catches_sabotage());
}

}  // namespace
