// Tests for the MC_CHECK shadow-ownership verifier (DESIGN.md section
// 11.3) and the typed access-annotation layer (11.2).
//
// This translation unit is compiled with MC_ACCESS_CHECK=1 regardless of
// the library's build mode (see tests/CMakeLists.txt), so the *checked*
// instantiations of the annotation types are always exercised: ledger
// unit semantics, the BuildChecker runtime gating, and a deliberately
// broken toy protocol that must be caught at its first bad access. The
// annotation types are templates on `bool Checked`, so this TU's checked
// instantiations are distinct types from the library's -- no ODR hazard.
//
// Assertions that need the *builders'* hooks live (benzene zero-violations
// through the real shared-Fock build) skip unless the library itself was
// configured with -DMC_CHECK=ON; check::core_hooks_compiled() reports
// which world we are in.

#include <gtest/gtest.h>
#include <omp.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/access.hpp"
#include "common/access_check.hpp"
#include "common/error.hpp"
#include "fock_fixture.hpp"

namespace mc::core {
namespace {

// ---- Zero-overhead proof for the unchecked instantiations ----

TEST(AccessTypes, UncheckedInstantiationsAreBareViews) {
  static_assert(sizeof(acc::OwnedSlice<double, false>) ==
                    sizeof(double*) + sizeof(std::size_t),
                "unchecked OwnedSlice must be pointer + length");
  static_assert(sizeof(acc::ThreadPrivate<double, false>) ==
                    sizeof(double*) + sizeof(std::size_t),
                "unchecked ThreadPrivate must be pointer + length");
  static_assert(sizeof(acc::TeamBuffer<double, false>) ==
                    sizeof(double*) + 2 * sizeof(std::size_t),
                "unchecked TeamBuffer must be pointer + lanes + stride");
  static_assert(sizeof(acc::SharedReadOnly<long, false>) == sizeof(long),
                "unchecked SharedReadOnly must be the bare value");
  static_assert(sizeof(acc::BuildChecker<false>) == 1, "must be empty");
  static_assert(sizeof(acc::ThreadCtx<false>) == 1, "must be empty");
  SUCCEED();
}

// ---- ShadowLedger unit semantics (driven directly, single-threaded;
// the epoch algebra does not care which OS thread calls the handles) ----

TEST(ShadowLedger, FirstConflictingWriteIsCaughtExactly) {
  check::Registry::instance().reset();
  check::ShadowLedger ledger(/*rank=*/3, /*nthreads=*/2);
  const int f = ledger.add_region("F", 64);
  auto t0 = ledger.thread(0);
  auto t1 = ledger.thread(1);

  t0.set_task(11);
  t0.on_write(f, 7);
  EXPECT_EQ(ledger.violations(), 0u) << "a single writer is not a conflict";

  t1.set_task(12);
  t1.on_write(f, 7);  // same element, same epoch, different thread
  ASSERT_EQ(ledger.violations(), 1u);

  const check::Violation v = ledger.first_violation();
  EXPECT_EQ(v.rank, 3);
  EXPECT_EQ(v.region, "F");
  EXPECT_EQ(v.index, 7u);
  EXPECT_EQ(v.tid_a, 0);
  EXPECT_EQ(v.tid_b, 1);
  EXPECT_EQ(v.task_a, 11);
  EXPECT_EQ(v.task_b, 12);
  EXPECT_FALSE(v.read_write);
  EXPECT_EQ(check::Registry::instance().count(), 1u);
  check::Registry::instance().reset();
}

TEST(ShadowLedger, BarrierSeparatedWritesAreOrdered) {
  check::Registry::instance().reset();
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("F", 8);
  auto t0 = ledger.thread(0);
  auto t1 = ledger.thread(1);

  t0.on_write(f, 3);
  // Both threads pass the team barrier: happens-before edge.
  t0.barrier();
  t1.barrier();
  t1.on_write(f, 3);
  EXPECT_EQ(ledger.violations(), 0u);
  check::Registry::instance().reset();
}

TEST(ShadowLedger, SameEpochWriteThenReadConflicts) {
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("FI", 8);
  auto t0 = ledger.thread(0);
  auto t1 = ledger.thread(1);
  t0.on_write(f, 5);
  t1.on_read(f, 5);
  ASSERT_EQ(ledger.violations(), 1u);
  EXPECT_TRUE(ledger.first_violation().read_write);
  check::Registry::instance().reset();
}

TEST(ShadowLedger, SameEpochReadThenWriteConflicts) {
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("FI", 8);
  auto t0 = ledger.thread(0);
  auto t1 = ledger.thread(1);
  t0.on_read(f, 5);
  t1.on_write(f, 5);
  ASSERT_EQ(ledger.violations(), 1u);
  EXPECT_TRUE(ledger.first_violation().read_write);
  check::Registry::instance().reset();
}

TEST(ShadowLedger, ConcurrentReadsAreAllowed) {
  check::ShadowLedger ledger(0, 4);
  const int f = ledger.add_region("D", 8);
  for (int t = 0; t < 4; ++t) ledger.thread(t).on_read(f, 2);
  EXPECT_EQ(ledger.violations(), 0u);
}

TEST(ShadowLedger, OneThreadMayRewriteFreely) {
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("F", 8);
  auto t0 = ledger.thread(0);
  t0.on_write(f, 1);
  t0.on_write(f, 1);
  t0.on_read(f, 1);
  EXPECT_EQ(ledger.violations(), 0u);
}

TEST(ShadowLedger, DistinctElementsNeverConflict) {
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("F", 8);
  auto t0 = ledger.thread(0);
  auto t1 = ledger.thread(1);
  t0.on_write(f, 0);
  t1.on_write(f, 1);
  EXPECT_EQ(ledger.violations(), 0u);
}

TEST(ShadowLedger, TaskSentinelRoundTripsAsMinusOne) {
  // No set_task call: the packed record's task sentinel must come back
  // as -1 in the diagnostic, not as the raw 2^30-1 bit pattern.
  check::ShadowLedger ledger(0, 2);
  const int f = ledger.add_region("F", 4);
  ledger.thread(0).on_write(f, 2);
  ledger.thread(1).on_write(f, 2);
  ASSERT_EQ(ledger.violations(), 1u);
  EXPECT_EQ(ledger.first_violation().task_a, -1);
  EXPECT_EQ(ledger.first_violation().task_b, -1);
  check::Registry::instance().reset();
}

TEST(ShadowLedger, OutOfRegionAccessTraps) {
  check::ShadowLedger ledger(0, 1);
  const int f = ledger.add_region("F", 4);
  auto t0 = ledger.thread(0);
  EXPECT_THROW(t0.on_write(f, 4), mc::Error);
}

// ---- Runtime gating ----

TEST(ScopedForce, OverridesNestAndRestore) {
  check::ScopedForce on(true);
  EXPECT_TRUE(check::enabled());
  {
    check::ScopedForce off(false);
    EXPECT_FALSE(check::enabled());
  }
  EXPECT_TRUE(check::enabled());
}

TEST(BuildChecker, RuntimeDisabledCheckerIsInert) {
  check::ScopedForce off(false);
  acc::BuildChecker<true> checker(0, 4);
  EXPECT_FALSE(checker.active());
  EXPECT_EQ(checker.region("F", 8), -1);
  EXPECT_FALSE(checker.thread(0).active());
  EXPECT_EQ(checker.violations(), 0u);
  checker.finalize();  // must not throw
}

TEST(BuildChecker, FinalizeThrowsOnViolation) {
  check::ScopedForce on(true);
  check::Registry::instance().reset();
  acc::BuildChecker<true> checker(0, 2);
  const int f = checker.region("F", 16);
  auto t0 = checker.thread(0);
  auto t1 = checker.thread(1);
  t0.on_write(f, 2);
  t1.on_write(f, 2);
  EXPECT_EQ(checker.violations(), 1u);
  EXPECT_THROW(checker.finalize(), mc::Error);

  // MC_CHECK_KEEP_GOING downgrades the throw so a harness can inspect the
  // Registry instead of unwinding.
  ::setenv("MC_CHECK_KEEP_GOING", "1", 1);
  EXPECT_NO_THROW(checker.finalize());
  ::unsetenv("MC_CHECK_KEEP_GOING");
  check::Registry::instance().reset();
}

// ---- Checked annotation types trap misuse ----

TEST(SharedReadOnly, ReadBeforeInitTraps) {
  acc::SharedReadOnly<long, true> v;
  EXPECT_THROW((void)v.get(), mc::Error);
  const acc::SharedReadOnly<long, true> set(42);
  EXPECT_EQ(set.get(), 42);
}

// ---- A toy Algorithm-3-style protocol through the checked types ----
//
// Each thread accumulates into its own team-buffer lane, then the lanes
// are flush-reduced into disjoint column chunks of the shared vector --
// the shape of the paper's Figure 1B. With `skip_barrier` the sync
// separating lane writes from the cross-lane flush reads is omitted: the
// classic protocol regression. The ledger must catch it on ANY schedule
// (each cross-lane read meets the lane owner's same-epoch write), which
// is the exactness claim TSan cannot make.

std::size_t run_toy_flush(int nt, bool skip_barrier) {
  check::ScopedForce force(true);
  const std::size_t stride = 16;
  std::vector<double> f(stride, 0.0);
  std::vector<double> lanes(static_cast<std::size_t>(nt) * stride, 0.0);
  acc::BuildChecker<true> checker(/*rank=*/0, nt);
  const int reg_f = checker.region("F", f.size());
  const int reg_fi = checker.region("FI", lanes.size());
#pragma omp parallel num_threads(nt)
  {
    const int tid = omp_get_thread_num();
    acc::ThreadCtx<true> th(checker, tid);
    const acc::TeamBuffer<double, true> buf(lanes.data(), nt, stride, &th,
                                            reg_fi);
    const acc::ThreadPrivate<double, true> mine = buf.lane(tid);
    const acc::OwnedSlice<double, true> facc(f.data(), f.size(), &th, reg_f,
                                             0);
    th.set_task(tid);
    for (std::size_t i = 0; i < stride; ++i) mine.add(i, 1.0);
    if (!skip_barrier) MC_PROTOCOL_BARRIER(f.data(), th);
#pragma omp for
    for (int c = 0; c < static_cast<int>(stride); ++c) {
      double sum = 0.0;
      for (int t = 0; t < nt; ++t) {
        sum += buf.read(t, static_cast<std::size_t>(c));
      }
      facc.add(static_cast<std::size_t>(c), sum);
    }
  }
  const std::size_t violations = checker.violations();
  if (violations != 0) {
    EXPECT_THROW(checker.finalize(), mc::Error);
  } else {
    checker.finalize();
  }
  return violations;
}

TEST(ToyProtocol, CorrectBarrierPlacementIsClean) {
  check::Registry::instance().reset();
  EXPECT_EQ(run_toy_flush(/*nt=*/4, /*skip_barrier=*/false), 0u);
  EXPECT_EQ(check::Registry::instance().count(), 0u);
}

TEST(ToyProtocol, MissingFlushBarrierCaughtDeterministically) {
  check::Registry::instance().reset();
  const std::size_t violations = run_toy_flush(/*nt=*/2, /*skip_barrier=*/true);
  // Deterministic lower bound: every cross-lane flush read meets the
  // owner's same-epoch lane write. nt=2 -> one foreign lane per column.
  EXPECT_GE(violations, 16u);
  bool found = false;
  for (const check::Violation& v : check::Registry::instance().violations()) {
    if (v.region == "FI" && v.read_write) found = true;
  }
  EXPECT_TRUE(found) << "expected a write/read conflict on the lane buffer";
  check::Registry::instance().reset();
}

// ---- The column-owner flush of the shared builder, in miniature ----
//
// After the lane writes and a barrier, the owner of column c takes (reads
// and zeroes) element c of every lane into F; then each lane's owner
// writes its lane again, as for the next claimed pair. Only the barrier
// after the flush orders a take of a peer's lane before that peer's next
// write. Without it every element a column owner took from a peer's lane
// meets the peer's same-epoch write: a write/write conflict on any
// schedule.

std::size_t run_toy_take_flush(int nt, bool skip_post_flush_barrier) {
  check::ScopedForce force(true);
  const std::size_t stride = 16;
  std::vector<double> f(stride, 0.0);
  std::vector<double> lanes(static_cast<std::size_t>(nt) * stride, 0.0);
  acc::BuildChecker<true> checker(/*rank=*/0, nt);
  const int reg_f = checker.region("F", f.size());
  const int reg_fj = checker.region("FJ", lanes.size());
#pragma omp parallel num_threads(nt)
  {
    const int tid = omp_get_thread_num();
    acc::ThreadCtx<true> th(checker, tid);
    const acc::TeamBuffer<double, true> buf(lanes.data(), nt, stride, &th,
                                            reg_fj);
    const acc::ThreadPrivate<double, true> mine = buf.lane(tid);
    const acc::OwnedSlice<double, true> facc(f.data(), f.size(), &th, reg_f,
                                             0);
    th.set_task(tid);
    for (std::size_t i = 0; i < stride; ++i) mine.add(i, 1.0);
    MC_PROTOCOL_BARRIER(f.data(), th);
#pragma omp for schedule(static) nowait
    for (int c = 0; c < static_cast<int>(stride); ++c) {
      double sum = 0.0;
      for (int t = 0; t < nt; ++t) {
        sum += buf.take(t, static_cast<std::size_t>(c));
      }
      facc.add(static_cast<std::size_t>(c), sum);
    }
    if (!skip_post_flush_barrier) MC_PROTOCOL_BARRIER(f.data(), th);
    for (std::size_t i = 0; i < stride; ++i) mine.add(i, 1.0);
  }
  const std::size_t violations = checker.violations();
  if (violations != 0) {
    EXPECT_THROW(checker.finalize(), mc::Error);
  } else {
    checker.finalize();
    for (const double v : f) EXPECT_EQ(v, static_cast<double>(nt));
    for (const double v : lanes) EXPECT_EQ(v, 1.0);
  }
  return violations;
}

TEST(ToyProtocol, ColumnOwnerFlushWithPostFlushBarrierIsClean) {
  check::Registry::instance().reset();
  EXPECT_EQ(run_toy_take_flush(/*nt=*/4, /*skip_post_flush_barrier=*/false),
            0u);
  EXPECT_EQ(check::Registry::instance().count(), 0u);
}

TEST(ToyProtocol, MissingPostFlushBarrierCaughtDeterministically) {
  check::Registry::instance().reset();
  const std::size_t violations =
      run_toy_take_flush(/*nt=*/2, /*skip_post_flush_barrier=*/true);
  // Deterministic lower bound: each column is taken from the one foreign
  // lane at nt=2, and that lane's owner rewrites it in the same epoch.
  EXPECT_GE(violations, 16u);
  bool found = false;
  for (const check::Violation& v : check::Registry::instance().violations()) {
    if (v.region == "FJ" && !v.read_write) found = true;
  }
  EXPECT_TRUE(found) << "expected a write/write conflict on the lane buffer";
  check::Registry::instance().reset();
}

// ---- The real builders under a live ledger ----

TEST(McCheckBuilders, SharedFockBenzeneHasZeroViolations) {
  if (!check::core_hooks_compiled()) {
    GTEST_SKIP() << "library built without -DMC_CHECK=ON";
  }
  check::ScopedForce on(true);
  check::Registry::instance().reset();
  FockFixture fx(chem::builders::benzene(), "STO-3G");
  la::Matrix g = build_distributed(fx, 2, [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 4;
    return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi, opt);
  });
  EXPECT_NEAR(g.max_abs_diff(fx.g_ref), 0.0, 1e-10);
  EXPECT_EQ(check::Registry::instance().count(), 0u)
      << check::Registry::instance().violations().front().to_string();
}

TEST(McCheckBuilders, PrivateFockBenzeneHasZeroViolations) {
  if (!check::core_hooks_compiled()) {
    GTEST_SKIP() << "library built without -DMC_CHECK=ON";
  }
  check::ScopedForce on(true);
  check::Registry::instance().reset();
  FockFixture fx(chem::builders::benzene(), "STO-3G");
  la::Matrix g = build_distributed(fx, 2, [&](par::Ddi& ddi) {
    PrivateFockOptions opt;
    opt.nthreads = 4;
    return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi, opt);
  });
  EXPECT_NEAR(g.max_abs_diff(fx.g_ref), 0.0, 1e-10);
  EXPECT_EQ(check::Registry::instance().count(), 0u)
      << check::Registry::instance().violations().front().to_string();
}

TEST(McCheckBuilders, DistFockBenzeneHasZeroViolations) {
  // The dist builder's F panels are written through OwnedSlice with one
  // ledger region per open panel, so a write routed outside the panel it
  // names would trap as out-of-region.
  if (!check::core_hooks_compiled()) {
    GTEST_SKIP() << "library built without -DMC_CHECK=ON";
  }
  check::ScopedForce on(true);
  check::Registry::instance().reset();
  FockFixture fx(chem::builders::benzene(), "STO-3G");
  la::Matrix g = build_distributed(fx, 2, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  });
  EXPECT_NEAR(g.max_abs_diff(fx.g_ref), 0.0, 1e-10);
  EXPECT_EQ(check::Registry::instance().count(), 0u)
      << check::Registry::instance().violations().front().to_string();
}

TEST(McCheckBuilders, DisablingTheLedgerIsZeroUlp) {
  // The ledger reads and records; it never touches the arithmetic. With a
  // deterministic configuration (one rank, static kl schedule -- the only
  // run-to-run nondeterminism in the shared build is dynamic work
  // assignment), the forced-on and forced-off builds must agree to the
  // bit. In normal builds both runs compile the hooks out and this is a
  // trivial determinism check; in -DMC_CHECK=ON builds it is the measured
  // 0-ULP claim of DESIGN.md 11.3.
  FockFixture fx(chem::builders::water(), "6-31G");
  const auto build_once = [&]() {
    return build_distributed(fx, 1, [&](par::Ddi& ddi) {
      SharedFockOptions opt;
      opt.nthreads = 4;
      opt.dynamic_schedule = false;
      return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi, opt);
    });
  };
  la::Matrix g_off;
  la::Matrix g_on;
  {
    check::ScopedForce off(false);
    g_off = build_once();
  }
  {
    check::ScopedForce on(true);
    check::Registry::instance().reset();
    g_on = build_once();
    EXPECT_EQ(check::Registry::instance().count(), 0u);
  }
  EXPECT_EQ(la::max_ulp_diff(g_on, g_off), 0u);
  EXPECT_NEAR(g_on.max_abs_diff(fx.g_ref), 0.0, 1e-10);
}

}  // namespace
}  // namespace mc::core
