// Compact concurrency-protocol exercise for sanitizer runs (`ctest -L
// tsan`). The full equivalence sweep is too slow under ThreadSanitizer's
// ~10x slowdown, so this file drives exactly the configurations whose
// synchronization protocols differ -- each of the paper's three Fock
// builders at multiple ranks x multiple threads, both schedules -- once
// each, on a small system. Under MC_SANITIZE=
// thread this validates the race-freedom-by-construction argument of
// Algorithm 3 (direct shared-G writes to distinct kl blocks + buffered
// i/j columns); in a normal build it is a fast smoke test.

#include <gtest/gtest.h>

#include <memory>

#include "fock_fixture.hpp"

namespace mc::core {
namespace {

FockFixture& fx() {
  static FockFixture f(chem::builders::water(), "STO-3G");
  return f;
}

TEST(TsanProtocol, MpiDlbCounterTwoRanks) {
  la::Matrix g = build_distributed(fx(), 2, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderMpi>(fx().eri, fx().screen, ddi);
  });
  expect_bit_comparable(g, fx().g_ref, kMaxSkeletonUlps, "mpi dlb r=2");
}

TEST(TsanProtocol, PrivateFockTwoRanksFourThreads) {
  for (bool dyn : {true, false}) {
    la::Matrix g = build_distributed(fx(), 2, [&](par::Ddi& ddi) {
      PrivateFockOptions opt;
      opt.nthreads = 4;
      opt.dynamic_schedule = dyn;
      return std::make_unique<FockBuilderPrivate>(fx().eri, fx().screen,
                                                  ddi, opt);
    });
    expect_bit_comparable(g, fx().g_ref, kMaxSkeletonUlps,
                          dyn ? "private dyn" : "private stat");
  }
}

TEST(TsanProtocol, SharedFockTwoRanksFourThreads) {
  la::Matrix g = build_distributed(fx(), 2, [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 4;
    return std::make_unique<FockBuilderShared>(fx().eri, fx().screen, ddi,
                                               opt);
  });
  expect_bit_comparable(g, fx().g_ref, kMaxSkeletonUlps, "shared dyn");
}

TEST(TsanProtocol, DistFockWindowsThreeRanks) {
  // The one-sided window layer: concurrent put/get into disjoint segments,
  // striped-lock acc from every rank into every segment, the fence epochs
  // separating them, and the DLB counter the claim loop shares.
  la::Matrix g = build_distributed(fx(), 3, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx().eri, fx().screen, ddi);
  });
  expect_bit_comparable(g, fx().g_ref, kMaxSkeletonUlps, "dist r=3");
}

TEST(TsanProtocol, WeightedDeltaBuildsAcrossAllThreeBuilders) {
  // The incremental path adds the density-weighted prescreens and the
  // density_screened counter accumulation to every builder's parallel
  // region; drive each one under ranks x threads so TSan sees the new
  // branches and the atomic counter update.
  la::Matrix g_mpi = build_distributed_delta(fx(), 2, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderMpi>(fx().eri, fx().screen, ddi);
  });
  expect_bit_comparable(g_mpi, fx().g_ref_delta, kMaxSkeletonUlps,
                        "mpi weighted delta");
  la::Matrix g_priv = build_distributed_delta(fx(), 2, [&](par::Ddi& ddi) {
    PrivateFockOptions opt;
    opt.nthreads = 4;
    return std::make_unique<FockBuilderPrivate>(fx().eri, fx().screen, ddi,
                                                opt);
  });
  expect_bit_comparable(g_priv, fx().g_ref_delta, kMaxSkeletonUlps,
                        "private weighted delta");
  la::Matrix g_sh = build_distributed_delta(fx(), 2, [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 4;
    return std::make_unique<FockBuilderShared>(fx().eri, fx().screen, ddi,
                                               opt);
  });
  expect_bit_comparable(g_sh, fx().g_ref_delta, kMaxSkeletonUlps,
                        "shared weighted delta");
  la::Matrix g_dist = build_distributed_delta(fx(), 2, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx().eri, fx().screen, ddi);
  });
  expect_bit_comparable(g_dist, fx().g_ref_delta, kMaxSkeletonUlps,
                        "dist weighted delta");
}

TEST(TsanProtocol, SharedFockStaticScheduleOneRankFourThreads) {
  // schedule(static) on the kl loop: each thread gets a fixed share of
  // every kl loop instead of claiming kl values one by one, and the
  // column owners' flush must be ordered after all of them alike.
  la::Matrix g = build_distributed(fx(), 1, [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 4;
    opt.dynamic_schedule = false;
    return std::make_unique<FockBuilderShared>(fx().eri, fx().screen, ddi,
                                               opt);
  });
  expect_bit_comparable(g, fx().g_ref, kMaxSkeletonUlps, "shared stat");
}

}  // namespace
}  // namespace mc::core
