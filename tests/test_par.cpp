// Tests for the minimpi SPMD runtime: barrier, collectives, the DDI
// dynamic-load-balance counter, one-sided windows, and failure
// propagation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "la/matrix.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"

namespace mc::par {
namespace {

class ParTest : public ::testing::TestWithParam<int> {};

TEST_P(ParTest, RanksSeeCorrectSizeAndDistinctIds) {
  const int n = GetParam();
  std::mutex mu;
  std::set<int> seen;
  run_spmd(n, [&](Comm& comm) {
    EXPECT_EQ(comm.size(), n);
    std::lock_guard<std::mutex> lk(mu);
    seen.insert(comm.rank());
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), n - 1);
}

TEST_P(ParTest, AllreduceSumsAcrossRanks) {
  const int n = GetParam();
  run_spmd(n, [&](Comm& comm) {
    std::vector<double> data(37);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = comm.rank() + 1.0 + static_cast<double>(i);
    }
    comm.allreduce_sum(data.data(), data.size());
    const double ranksum = n * (n + 1) / 2.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      EXPECT_DOUBLE_EQ(data[i], ranksum + n * static_cast<double>(i));
    }
  });
}

TEST_P(ParTest, AllreduceMax) {
  const int n = GetParam();
  run_spmd(n, [&](Comm& comm) {
    const double v = 1.0 + comm.rank();
    EXPECT_DOUBLE_EQ(comm.allreduce_max(v), static_cast<double>(n));
    // Repeated use must re-initialize correctly.
    EXPECT_DOUBLE_EQ(comm.allreduce_max(0.5), 0.5);
  });
}

TEST_P(ParTest, DlbCounterHandsOutEachIndexExactlyOnce) {
  const int n = GetParam();
  const long ntasks = 100;
  std::mutex mu;
  std::vector<long> claimed;
  run_spmd(n, [&](Comm& comm) {
    comm.dlb_reset();
    std::vector<long> mine;
    for (;;) {
      const long task = comm.dlb_next();
      if (task >= ntasks) break;
      mine.push_back(task);
    }
    std::lock_guard<std::mutex> lk(mu);
    claimed.insert(claimed.end(), mine.begin(), mine.end());
  });
  std::sort(claimed.begin(), claimed.end());
  ASSERT_EQ(claimed.size(), static_cast<std::size_t>(ntasks));
  for (long i = 0; i < ntasks; ++i) EXPECT_EQ(claimed[static_cast<std::size_t>(i)], i);
}

TEST_P(ParTest, DlbResetRestartsAtZero) {
  const int n = GetParam();
  run_spmd(n, [&](Comm& comm) {
    comm.dlb_reset();
    comm.dlb_next();
    comm.dlb_next();
    comm.dlb_reset();
    std::atomic<long>* dummy = nullptr;
    (void)dummy;
    const long t = comm.dlb_next();
    EXPECT_LT(t, static_cast<long>(comm.size()));  // fresh counter
    comm.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, ParTest, ::testing::Values(1, 2, 4, 7));

TEST(ParRuntime, ExceptionInOneRankPropagatesWithoutDeadlock) {
  EXPECT_THROW(
      run_spmd(4,
               [&](Comm& comm) {
                 if (comm.rank() == 2) {
                   throw mc::Error("rank 2 exploded");
                 }
                 // Other ranks head into a barrier; the abort must wake them.
                 // mc-lint: allow(MC-COLL-001): rank 2 throws by design
                 comm.barrier();
                 // mc-lint: allow(MC-COLL-001): rank 2 throws by design
                 comm.barrier();
               }),
      mc::Error);
}

TEST(ParRuntime, NestedJobsRejected) {
  EXPECT_THROW(run_spmd(2,
                        [&](Comm& comm) {
                          if (comm.rank() == 0) {
                            run_spmd(1, [](Comm&) {});
                          }
                          comm.barrier();
                        }),
               mc::Error);
}

TEST(ParRuntime, MemoryAttributionPerRank) {
  MemoryTracker::instance().reset();
  run_spmd(3, [&](Comm& comm) {
    la::Matrix m(10, 10, "fock");
    comm.barrier();
    // Every rank sees its own allocation attributed to itself.
    EXPECT_EQ(MemoryTracker::instance().bytes(comm.rank(), "fock"),
              100 * sizeof(double));
    comm.barrier();
  });
  // All released after the job.
  EXPECT_EQ(MemoryTracker::instance().total_bytes(), 0u);
  MemoryTracker::instance().reset();
}

TEST(Ddi, FacadeMapsToCommOperations) {
  run_spmd(3, [&](Comm& comm) {
    Ddi ddi(comm);
    EXPECT_EQ(ddi.size(), 3);
    EXPECT_EQ(ddi.rank(), comm.rank());

    la::Matrix m(4, 4);
    m.fill(1.0);
    ddi.gsumf(m);
    EXPECT_DOUBLE_EQ(m(2, 2), 3.0);

    ddi.dlb_reset();
    const long t = ddi.dlbnext();
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 3);
    EXPECT_EQ(&ddi.comm(), &comm);
  });
}

// ---- One-sided DDI windows ----

TEST_P(ParTest, WindowPutFenceGetRoundTrips) {
  const int n = GetParam();
  run_spmd(n, [&](Comm& comm) {
    Ddi ddi(comm);
    // Uneven layout: rank r owns 3 + r elements.
    std::vector<std::size_t> elems;
    for (int r = 0; r < n; ++r) elems.push_back(3 + static_cast<std::size_t>(r));
    Window w = ddi.create("t:roundtrip", elems);
    ASSERT_TRUE(w.valid());
    const std::size_t total = w.size();

    // Each rank puts its rank id into its own segment.
    std::vector<double> mine(elems[static_cast<std::size_t>(comm.rank())],
                             static_cast<double>(comm.rank()));
    ddi.put(w, w.rank_base(comm.rank()), mine.data(), mine.size());
    ddi.fence(w);

    // Every rank reads the whole window, including across segment
    // boundaries, and sees every peer's data.
    std::vector<double> all(total, -1.0);
    ddi.get(w, 0, all.data(), total);
    for (int r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < elems[static_cast<std::size_t>(r)]; ++i) {
        EXPECT_DOUBLE_EQ(all[w.rank_base(r) + i], static_cast<double>(r));
      }
    }
    ddi.fence(w);
    ddi.destroy(w);
    EXPECT_FALSE(w.valid());
  });
}

TEST_P(ParTest, WindowAccIsElementAtomicAcrossRanks) {
  const int n = GetParam();
  constexpr std::size_t kLen = 5000;  // spans multiple acc-lock stripes
  run_spmd(n, [&](Comm& comm) {
    Ddi ddi(comm);
    std::vector<std::size_t> elems(static_cast<std::size_t>(n), 0);
    elems[0] = kLen;  // all on rank 0: every acc is remote for ranks > 0
    Window w = ddi.create("t:acc", elems);
    ddi.fence(w);  // window starts zeroed

    // Every rank accumulates 1.0 everywhere, concurrently, with no fence
    // between the accs -- element atomicity is the only thing keeping the
    // count exact.
    std::vector<double> ones(kLen, 1.0);
    ddi.acc(w, 0, ones.data(), kLen);
    ddi.fence(w);

    std::vector<double> out(kLen, 0.0);
    ddi.get(w, 0, out.data(), kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      ASSERT_DOUBLE_EQ(out[i], static_cast<double>(n)) << "element " << i;
    }
    ddi.fence(w);
    ddi.destroy(w);
  });
}

TEST_P(ParTest, WindowKeysAreDistinctAndReusableAfterFree) {
  // The window registry holds one entry per key: two live windows never
  // alias, and a freed key attaches to fresh storage with a new layout.
  const int n = GetParam();
  run_spmd(n, [&](Comm& comm) {
    Ddi ddi(comm);
    const std::vector<std::size_t> two(static_cast<std::size_t>(n), 2);
    Window a = ddi.create("t:a", two);
    Window b = ddi.create("t:b", two);
    const double v = 1.0 + comm.rank();
    ddi.put(a, a.rank_base(comm.rank()), &v, 1);
    ddi.fence(a);
    ddi.fence(b);
    std::vector<double> out(b.size(), -1.0);
    ddi.get(b, 0, out.data(), out.size());
    for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);  // a's puts stay in a
    ddi.get(a, a.rank_base(n - 1), out.data(), 1);
    EXPECT_DOUBLE_EQ(out[0], static_cast<double>(n));
    ddi.fence(a);
    ddi.fence(b);
    ddi.destroy(a);
    ddi.destroy(b);

    const std::vector<std::size_t> three(static_cast<std::size_t>(n), 3);
    Window a2 = ddi.create("t:a", three);  // new layout under the old key
    EXPECT_EQ(a2.size(), 3 * static_cast<std::size_t>(n));
    std::vector<double> fresh(a2.size(), -1.0);
    ddi.get(a2, 0, fresh.data(), fresh.size());
    for (double x : fresh) EXPECT_DOUBLE_EQ(x, 0.0);
    ddi.fence(a2);
    ddi.destroy(a2);
  });
}

TEST(Window, RanksDisagreeingOnALayoutAbortTheJob) {
  // win_create checks every rank's layout against the registered entry; a
  // rank that disagrees throws, and the abort wakes its peers in the
  // create's barrier instead of leaving them blocked.
  EXPECT_THROW(run_spmd(3,
                        [&](Comm& comm) {
                          std::vector<std::size_t> elems(3, 4);
                          if (comm.rank() == 2) elems[0] = 5;
                          Window w = comm.win_create("t:disagree", elems);
                          comm.win_free(w);
                        }),
               mc::Error);
}

TEST(Window, TrackedBytesAreChargedToTheOwningRank) {
  MemoryTracker::instance().reset();
  constexpr std::size_t kPerRank = 1000;
  run_spmd(3, [&](Comm& comm) {
    Ddi ddi(comm);
    std::vector<std::size_t> elems(3, kPerRank);
    Window w = ddi.create("t:bytes", elems);
    // Each rank's segment is charged to that rank, not to whichever rank
    // created the shared state first -- the property bench_table2_memory's
    // per-rank footprint assertion rests on.
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(MemoryTracker::instance().bytes(r, "ddi-window"),
                kPerRank * sizeof(double));
    }
    ddi.destroy(w);
    EXPECT_EQ(
        MemoryTracker::instance().bytes(comm.rank(), "ddi-window"), 0u);
    comm.barrier();
  });
}

TEST(Window, PutAndGetRangeCheck) {
  run_spmd(2, [&](Comm& comm) {
    Ddi ddi(comm);
    Window w = ddi.create("t:range", {4, 4});
    double buf[4] = {0, 0, 0, 0};
    if (comm.rank() == 0) {
      EXPECT_THROW(ddi.get(w, 6, buf, 4), mc::Error);  // runs off the end
      EXPECT_THROW(ddi.put(w, 8, buf, 1), mc::Error);  // starts past the end
    }
    ddi.fence(w);  // keep collectives matched after the local throws
    ddi.destroy(w);
  });
}

TEST(Window, ReusingAKeyAfterDestroyGetsFreshStorage) {
  run_spmd(2, [&](Comm& comm) {
    Ddi ddi(comm);
    {
      Window w = ddi.create("t:reuse", {2, 2});
      const double v = 7.0;
      ddi.put(w, static_cast<std::size_t>(comm.rank()) * 2, &v, 1);
      ddi.fence(w);
      ddi.destroy(w);
    }
    {
      Window w = ddi.create("t:reuse", {2, 2});
      double out[4] = {-1, -1, -1, -1};
      ddi.get(w, 0, out, 4);
      for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);  // fresh, zeroed
      ddi.fence(w);
      ddi.destroy(w);
    }
  });
}

}  // namespace
}  // namespace mc::par
