// The benchmark's input programs. The applications are the benchsuite's HPL
// versions, called unchanged, each checked against its serial oracle; the
// chains are ordinary HPL user code over the pattern library. References are
// computed once, when the program is made.

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "benchsuite/ep.hpp"
#include "benchsuite/floyd.hpp"
#include "benchsuite/reduction.hpp"
#include "benchsuite/spmv.hpp"
#include "benchsuite/stencil.hpp"
#include "benchsuite/transpose.hpp"
#include "hpl/HPL.h"
#include "perfbench.hpp"
#include "support/prng.hpp"

namespace perfbench {

namespace {

namespace bs = hplrepro::benchsuite;
using namespace HPL;

// |got - want| <= abs_tol + rel_tol * |want|, the scenario grader's test.
bool close(double got, double want, double abs_tol, double rel_tol) {
  return std::fabs(got - want) <= abs_tol + rel_tol * std::fabs(want);
}

bool close(const float* got, const std::vector<float>& want, double abs_tol,
           double rel_tol) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!close(got[i], want[i], abs_tol, rel_tol)) return false;
  }
  return true;
}

// --- Applications ------------------------------------------------------------
// Tolerances are the scenario grader's (src/scenario/workloads.cpp).

Program ep_program(const bs::EpConfig& config, Device device) {
  auto want = std::make_shared<const bs::EpResult>(bs::ep_serial(config));
  return {"ep", false, [config, device, want] {
            const bs::EpResult got = bs::ep_hpl(config, device).result;
            return got.accepted == want->accepted && got.q == want->q &&
                   close(got.sx, want->sx, 1e-9, 1e-9) &&
                   close(got.sy, want->sy, 1e-9, 1e-9);
          }};
}

Program floyd_program(const bs::FloydConfig& config, Device device) {
  auto want = std::make_shared<const std::vector<float>>(
      bs::floyd_serial(config));
  return {"floyd", false, [config, device, want] {
            return close(bs::floyd_hpl(config, device).distances.data(), *want,
                         1e-5, 1e-6);
          }};
}

Program transpose_program(const bs::TransposeConfig& config, Device device) {
  auto want = std::make_shared<const std::vector<float>>(
      bs::transpose_serial(config));
  return {"transpose", false, [config, device, want] {
            return bs::transpose_hpl(config, device).output == *want;
          }};
}

Program spmv_program(const bs::SpmvConfig& config, Device device) {
  auto want = std::make_shared<const std::vector<float>>(
      bs::spmv_serial(config));
  return {"spmv", false, [config, device, want] {
            return close(bs::spmv_hpl(config, device).output.data(), *want,
                         1e-4, 1e-4);
          }};
}

Program reduction_program(const bs::ReductionConfig& config, Device device) {
  const double want = bs::reduction_serial(config);
  return {"reduction", false, [config, device, want] {
            return close(bs::reduction_hpl(config, device).sum, want, 0.05,
                         1e-4);
          }};
}

/// With co-execution devices set, the config must ask for one sweep, so
/// that the run's makespan is that of its one dispatch.
Program jacobi_program(const bs::StencilConfig& config, Device device) {
  auto want = std::make_shared<const std::vector<float>>(
      bs::jacobi_serial(config));
  const bool coexec = !config.coexec_devices.empty();
  return {coexec ? "jacobi_coexec" : "jacobi", coexec,
          [config, device, want] {
            return close(bs::jacobi_hpl(config, device).output.data(), *want,
                         1e-6, 1e-6);
          }};
}

// --- Pattern chains ----------------------------------------------------------

/// Chain lengths: 16K elements plus a seeded multiple of 64, up to 16.5K.
/// The pattern kernels' costs do not depend on the data, so the length is
/// the input property that moves their simulated time between seeds.
std::size_t chain_length(hplrepro::SplitMix64& rng) {
  return (std::size_t{1} << 14) + 64 * rng.next_below(9);
}

std::vector<float> random_floats(hplrepro::SplitMix64& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.next_float();
  return v;
}

/// Inputs and reference of one chain.
struct ChainData {
  std::size_t n = 0;
  std::vector<float> x, y;
  float a = 0, b = 0;
  std::vector<float> expected;
  double expected_sum = 0;
};

/// fill + iota + scale + add: two producer chains meeting in one map.
Program map_chain(hplrepro::SplitMix64& rng) {
  auto d = std::make_shared<ChainData>();
  d->n = chain_length(rng);
  d->a = 0.5f + rng.next_float();
  d->b = rng.next_float();
  d->expected.resize(d->n);
  for (std::size_t i = 0; i < d->n; ++i) {
    d->expected[i] = static_cast<float>(i) * d->a + d->b;
  }
  return {"map_chain", false, [d] {
            Array<float, 1> b(d->n), t(d->n), out(d->n);
            HPL::fill(b, d->b);
            HPL::iota(t);
            HPL::scale(t, d->a);
            HPL::add(out, t, b);
            return close(out.data(), d->expected, 1e-6, 1e-6);
          }};
}

/// axpy feeding dot: the map is inlined into the reduction loop.
Program axpy_dot(hplrepro::SplitMix64& rng) {
  auto d = std::make_shared<ChainData>();
  d->n = chain_length(rng);
  d->x = random_floats(rng, d->n);
  d->y = random_floats(rng, d->n);
  d->a = rng.next_float();
  for (std::size_t i = 0; i < d->n; ++i) {
    const float yi = d->a * d->x[i] + d->y[i];
    d->expected_sum += static_cast<double>(yi) * d->x[i];
  }
  return {"axpy_dot", false, [d] {
            std::vector<float> x = d->x, y = d->y;
            Array<float, 1> xa(d->n, x.data()), ya(d->n, y.data());
            HPL::axpy(ya, xa, d->a);
            return close(HPL::dot(ya, xa), d->expected_sum, 1e-6, 1e-4);
          }};
}

/// fill + mul feeding a reduction.
Program map_reduce(hplrepro::SplitMix64& rng) {
  auto d = std::make_shared<ChainData>();
  d->n = chain_length(rng);
  d->x = random_floats(rng, d->n);
  d->a = rng.next_float();
  for (const float xi : d->x) d->expected_sum += d->a * xi;
  return {"map_reduce", false, [d] {
            std::vector<float> x = d->x;
            Array<float, 1> xa(d->n, x.data()), f(d->n), p(d->n);
            HPL::fill(f, d->a);
            HPL::mul(p, f, xa);
            return close(HPL::reduce_sum(p), d->expected_sum, 1e-6, 1e-4);
          }};
}

/// A fill overwritten before anyone reads it (dead temporary), then a map.
Program dead_temp(hplrepro::SplitMix64& rng) {
  auto d = std::make_shared<ChainData>();
  d->n = chain_length(rng);
  d->x = random_floats(rng, d->n);
  d->a = rng.next_float();
  d->expected.resize(d->n);
  for (std::size_t i = 0; i < d->n; ++i) d->expected[i] = d->a + d->x[i];
  return {"dead_temp", false, [d] {
            std::vector<float> x = d->x;
            Array<float, 1> xa(d->n, x.data()), t(d->n), out(d->n);
            HPL::fill(t, 1.0f);
            HPL::fill(t, d->a);
            HPL::add(out, t, xa);
            return close(out.data(), d->expected, 1e-6, 1e-6);
          }};
}

/// A longer chain whose first intermediate has two readers, ending in a sum.
Program long_chain(hplrepro::SplitMix64& rng) {
  auto d = std::make_shared<ChainData>();
  d->n = chain_length(rng);
  d->x = random_floats(rng, d->n);
  d->a = 1.0f / static_cast<float>(d->n);
  for (std::size_t i = 0; i < d->n; ++i) {
    const float ai = static_cast<float>(i) * d->a;
    const float ci = (ai + d->x[i]) * d->x[i];
    d->expected_sum += ci - ai;
  }
  return {"long_chain", false, [d] {
            std::vector<float> x = d->x;
            Array<float, 1> xa(d->n, x.data()), a(d->n), b(d->n), c(d->n),
                e(d->n);
            HPL::iota(a);
            HPL::scale(a, d->a);
            HPL::add(b, a, xa);
            HPL::mul(c, b, xa);
            HPL::sub(e, c, a);
            return close(HPL::reduce_sum(e), d->expected_sum, 1e-6, 1e-4);
          }};
}

}  // namespace

std::vector<Program> app_programs(std::uint64_t seed, bool small) {
  hplrepro::SplitMix64 rng(seed ^ 0xA995ull);
  const Device tesla = Device::by_name("Tesla").value();
  if (!tesla.supports_double()) {
    throw std::runtime_error("the Tesla device has no double support (ep)");
  }

  // The benchsuite's default configs; `small` takes the sizes of the
  // scenario grader's reduced sweep and of its co-execution axis instead.
  bs::EpConfig ep;
  bs::FloydConfig floyd;
  bs::TransposeConfig transpose;
  bs::SpmvConfig spmv;
  bs::ReductionConfig reduction;
  bs::StencilConfig jacobi;
  bs::StencilConfig coexec;
  floyd.seed = rng.next_u64();
  transpose.seed = rng.next_u64();
  spmv.seed = rng.next_u64();
  reduction.seed = rng.next_u64();
  jacobi.seed = rng.next_u64();
  coexec.seed = rng.next_u64();
  coexec.iterations = 1;
  coexec.coexec_devices = {tesla, Device::by_name("Quadro").value()};
  coexec.coexec_policy = hplrepro::coexec::Policy::Guided;
  if (small) {
    ep.pairs = 1 << 10;
    ep.chunk = 32;
    ep.local_size = 32;
    floyd.nodes = 32;
    transpose.rows = 64;
    transpose.cols = 32;
    spmv.rows = 96;
    spmv.density = 0.05;
    reduction.elements = 1 << 12;
    reduction.groups = 8;
    reduction.local_size = 64;
    jacobi.width = 48;
    jacobi.height = 36;
    jacobi.iterations = 3;
    coexec.width = 96;
    coexec.height = 96;
  }
  return {ep_program(ep, tesla),
          floyd_program(floyd, tesla),
          transpose_program(transpose, tesla),
          spmv_program(spmv, tesla),
          reduction_program(reduction, tesla),
          jacobi_program(jacobi, tesla),
          jacobi_program(coexec, tesla)};
}

std::vector<Program> chain_programs(std::uint64_t seed) {
  hplrepro::SplitMix64 rng(seed ^ 0xC4A1ull);
  // Braced lists evaluate left to right, so the draws are in this order.
  return {map_chain(rng), axpy_dot(rng), map_reduce(rng), dead_temp(rng),
          long_chain(rng)};
}

}  // namespace perfbench
