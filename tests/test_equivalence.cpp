// Cross-algorithm equivalence harness (the tentpole invariant): the raw
// 2e-skeleton Fock matrix from all three of the paper's builders must be
// bit-comparable (ULP-bounded; see fock_fixture.hpp) to the serial
// reference across the full {ranks} x {threads} x {schedule} sweep, for a
// full build and for an incremental delta build, and bit-IDENTICAL wherever
// the summation order is deterministic.
// A lost update, duplicated flush, or misrouted buffer contribution anywhere
// in Algorithm 1-3's protocol fails these tests; rounding cannot.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "fock_fixture.hpp"

namespace mc::core {
namespace {

enum class Alg { kMpi, kPrivate, kShared, kDist };

const char* alg_name(Alg a) {
  switch (a) {
    case Alg::kMpi: return "mpi";
    case Alg::kPrivate: return "private";
    case Alg::kShared: return "shared";
    case Alg::kDist: return "dist";
  }
  return "?";
}

// Long-lived fixtures: ERI engines and serial references are expensive and
// strictly read-only during builds, so share one instance per system.
FockFixture& water_sto3g() {
  static FockFixture fx(chem::builders::water(), "STO-3G");
  return fx;
}
FockFixture& water_631g() {
  static FockFixture fx(chem::builders::water(), "6-31G");
  return fx;
}
FockFixture& methane_631gd() {
  static FockFixture fx(chem::builders::methane(), "6-31G(d)");
  return fx;
}

std::unique_ptr<scf::FockBuilder> make_builder(const FockFixture& fx,
                                               par::Ddi& ddi, Alg alg,
                                               int nthreads,
                                               bool dynamic_schedule) {
  switch (alg) {
    case Alg::kMpi:
      return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
    case Alg::kPrivate: {
      PrivateFockOptions opt;
      opt.nthreads = nthreads;
      opt.dynamic_schedule = dynamic_schedule;
      return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi, opt);
    }
    case Alg::kShared: {
      SharedFockOptions opt;
      opt.nthreads = nthreads;
      opt.dynamic_schedule = dynamic_schedule;
      return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi, opt);
    }
    case Alg::kDist:
      return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  }
  throw mc::Error("unreachable");
}

la::Matrix build(const FockFixture& fx, Alg alg, int nranks, int nthreads,
                 bool dynamic_schedule) {
  return build_distributed(fx, nranks, [&](par::Ddi& ddi) {
    return make_builder(fx, ddi, alg, nthreads, dynamic_schedule);
  });
}

// The fixture's delta density under its density-weighted context: the
// incremental build an SCF makes from its second iteration on.
la::Matrix build_delta(const FockFixture& fx, Alg alg, int nranks,
                       int nthreads, bool dynamic_schedule) {
  return build_distributed_delta(fx, nranks, [&](par::Ddi& ddi) {
    return make_builder(fx, ddi, alg, nthreads, dynamic_schedule);
  });
}

// ---- The sweep: (alg, nranks, nthreads, dynamic) ----

using SweepParam = std::tuple<Alg, int, int, bool>;

// The full grid minus the points whose dimension an algorithm lacks.
// MPI-only and dist-fock have no thread/schedule dimensions (one thread
// per rank, the DLB counter): keep exactly one representative per rank
// count so the sweep has no duplicate work.
std::vector<SweepParam> applicable_sweep_points() {
  std::vector<SweepParam> out;
  for (Alg alg : {Alg::kMpi, Alg::kPrivate, Alg::kShared, Alg::kDist}) {
    for (int nranks : {1, 2, 4}) {
      for (int nthreads : {1, 2, 4}) {
        for (bool dyn : {false, true}) {
          const bool redundant = (alg == Alg::kMpi || alg == Alg::kDist) &&
                                 (nthreads != 1 || dyn);
          if (!redundant) out.emplace_back(alg, nranks, nthreads, dyn);
        }
      }
    }
  }
  return out;
}

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

std::string sweep_point_name(const SweepParam& p) {
  const auto [alg, nranks, nthreads, dyn] = p;
  return std::string(alg_name(alg)) + " r=" + std::to_string(nranks) +
         " t=" + std::to_string(nthreads) + (dyn ? " dyn" : " stat");
}

TEST_P(EquivalenceSweep, SkeletonBitComparableToSerial) {
  const auto [alg, nranks, nthreads, dyn] = GetParam();
  const FockFixture& fx = water_sto3g();
  const la::Matrix g = build(fx, alg, nranks, nthreads, dyn);
  expect_bit_comparable(g, fx.g_ref, kMaxSkeletonUlps,
                        sweep_point_name(GetParam()));
}

// The same grid on the incremental path, where the density-weighted cascade
// decides which pairs (and so which shells) each builder claims: every
// configuration must still contract exactly the serial delta quartet set.
TEST_P(EquivalenceSweep, DeltaSkeletonBitComparableToSerial) {
  const auto [alg, nranks, nthreads, dyn] = GetParam();
  const FockFixture& fx = water_sto3g();
  const la::Matrix g = build_delta(fx, alg, nranks, nthreads, dyn);
  expect_bit_comparable(g, fx.g_ref_delta, kMaxSkeletonUlps,
                        sweep_point_name(GetParam()) + " delta");
}

INSTANTIATE_TEST_SUITE_P(RankThreadScheduleGrid, EquivalenceSweep,
                         ::testing::ValuesIn(applicable_sweep_points()));

// ---- Deterministic configurations must reproduce the serial bits ----

TEST(EquivalenceExact, SingleRankMpiIsBitIdenticalToSerial) {
  // One rank, one thread: the DLB counter walks the same Schwarz-sorted
  // pair list the serial builder iterates, in the same order, so the
  // result must match bit for bit.
  const FockFixture& fx = water_631g();
  const la::Matrix g = build(fx, Alg::kMpi, 1, 1, false);
  expect_bit_comparable(g, fx.g_ref, 0, "mpi r=1 exact");
}

TEST(EquivalenceExact, SingleThreadPrivateIsRunToRunDeterministic) {
  // One rank x one thread private-Fock claims bra shells in the screening's
  // work-sorted order and sweeps (j,k) ascending -- a different (but fixed)
  // summation order from the serial builder's Schwarz-sorted pair list. So
  // it is NOT bit-equal to serial, but repeated builds must agree bit for
  // bit, and the skeleton stays within the rounding envelope.
  const FockFixture& fx = water_631g();
  const la::Matrix g1 = build(fx, Alg::kPrivate, 1, 1, false);
  const la::Matrix g2 = build(fx, Alg::kPrivate, 1, 1, false);
  expect_bit_comparable(g1, g2, 0, "private r=1 t=1 repeat");
  expect_bit_comparable(g1, fx.g_ref, kMaxSkeletonUlps, "private r=1 t=1");
}

TEST(EquivalenceExact, SharedFockSingleThreadIsRunToRunDeterministic) {
  // One rank x one thread shared-Fock reorders additions through the FI/FJ
  // buffers (so it is NOT bit-equal to serial), but the order is fixed:
  // repeated builds must agree bit for bit.
  const FockFixture& fx = water_631g();
  const la::Matrix g1 = build(fx, Alg::kShared, 1, 1, false);
  const la::Matrix g2 = build(fx, Alg::kShared, 1, 1, false);
  expect_bit_comparable(g1, g2, 0, "shared r=1 t=1 repeat");
  expect_bit_comparable(g1, fx.g_ref, kMaxSkeletonUlps, "shared r=1 t=1");
}

TEST(EquivalenceExact, SingleRankDistIsBitIdenticalToSerial) {
  // One rank: the DLB counter walks the serial builder's Schwarz-sorted
  // pair list in order, every density row is a local tile, and each F
  // element is accumulated in one panel then acc'd once -- the same
  // additions in the same order, so the result must match bit for bit.
  const FockFixture& fx = water_631g();
  const la::Matrix g = build(fx, Alg::kDist, 1, 1, false);
  expect_bit_comparable(g, fx.g_ref, 0, "dist r=1 exact");
}

// ---- Larger systems: d shells and richer screening structure ----

TEST(EquivalenceSystems, Water631GAllThreeAcrossRanksAndThreads) {
  const FockFixture& fx = water_631g();
  for (int nranks : {1, 2}) {
    for (int nthreads : {1, 4}) {
      for (Alg alg : {Alg::kMpi, Alg::kPrivate, Alg::kShared, Alg::kDist}) {
        if ((alg == Alg::kMpi || alg == Alg::kDist) && nthreads != 1) {
          continue;
        }
        const la::Matrix g = build(fx, alg, nranks, nthreads, true);
        expect_bit_comparable(
            g, fx.g_ref, kMaxSkeletonUlps,
            std::string("6-31G ") + alg_name(alg) + " r=" +
                std::to_string(nranks) + " t=" + std::to_string(nthreads));
      }
    }
  }
}

TEST(EquivalenceSystems, MethaneDShellsAllThreeAgree) {
  const FockFixture& fx = methane_631gd();
  for (Alg alg : {Alg::kMpi, Alg::kPrivate, Alg::kShared, Alg::kDist}) {
    const int nthreads = (alg == Alg::kMpi || alg == Alg::kDist) ? 1 : 2;
    const la::Matrix g = build(fx, alg, 2, nthreads, true);
    expect_bit_comparable(g, fx.g_ref, kMaxSkeletonUlps,
                          std::string("6-31G(d) ") + alg_name(alg));
  }
}

}  // namespace
}  // namespace mc::core
