// Fault-injection tests for the minimpi abort protocol: a rank made to
// throw inside any collective, one-sided window op or thread spawn must
// never hang a peer that is already blocked in a different call, and
// run_spmd must rethrow the first error after every rank has unwound.
// Every test in this file doubles as a no-deadlock check -- the tsan ctest
// label carries a timeout, so a hang is a failure, not a stuck CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "chem/builders.hpp"
#include "common/error.hpp"
#include "core/parallel_scf.hpp"
#include "par/fault_injection.hpp"
#include "par/runtime.hpp"

namespace mc::par {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { clear_fault_plan(); }

  static void expect_fault_rethrown(int nranks,
                                    const std::function<void(Comm&)>& body) {
    try {
      run_spmd(nranks, body);
      FAIL() << "run_spmd should have rethrown the injected fault";
    } catch (const mc::Error& e) {
      // The injected error or a peer's abort-unwind error may win the race
      // to be "first"; both prove propagation worked.
      EXPECT_TRUE(std::string(e.what()).find("fault injection") !=
                      std::string::npos ||
                  std::string(e.what()).find("abort") != std::string::npos)
          << e.what();
    }
  }
};

// ---- One rank failing inside each collective, peers already blocked ----

TEST_F(FaultInjectionTest, BarrierFaultDoesNotHangPeers) {
  set_fault_plan({1, FaultOp::kBarrier, 0});
  expect_fault_rethrown(4, [](Comm& comm) { comm.barrier(); });
}

TEST_F(FaultInjectionTest, AllreduceSumFaultDoesNotHangPeers) {
  set_fault_plan({1, FaultOp::kAllreduceSum, 0});
  expect_fault_rethrown(4, [](Comm& comm) {
    std::vector<double> buf(64, static_cast<double>(comm.rank()));
    comm.allreduce_sum(buf.data(), buf.size());
  });
}

TEST_F(FaultInjectionTest, AllreduceMaxFaultDoesNotHangPeers) {
  set_fault_plan({2, FaultOp::kAllreduceMax, 0});
  expect_fault_rethrown(4, [](Comm& comm) {
    (void)comm.allreduce_max(static_cast<double>(comm.rank()));
  });
}

TEST_F(FaultInjectionTest, DlbResetFaultDoesNotHangPeers) {
  set_fault_plan({3, FaultOp::kDlbReset, 0});
  expect_fault_rethrown(4, [](Comm& comm) { comm.dlb_reset(); });
}

// ---- One-sided window ops: faults and abort propagation ----

TEST_F(FaultInjectionTest, WindowFenceFaultDoesNotHangPeers) {
  // The fence is the windows' collective; a rank faulting there must
  // unwind peers blocked in the same fence.
  set_fault_plan({1, FaultOp::kWinFence, 0});
  expect_fault_rethrown(4, [](Comm& comm) {
    Window w = comm.win_create("t:fault-fence", {8, 8, 8, 8});
    comm.win_fence(w);
  });
}

TEST_F(FaultInjectionTest, WindowPutFaultAbortsPeersAtNextFence) {
  // put/get/acc are one-sided: the fault fires on the calling rank only,
  // and the peers -- already blocked in the epoch-closing fence -- must be
  // woken by abort propagation, not left waiting for the dead rank.
  set_fault_plan({2, FaultOp::kWinPut, 0});
  expect_fault_rethrown(4, [](Comm& comm) {
    Window w = comm.win_create("t:fault-put", {4, 4, 4, 4});
    const double v = 1.0;
    comm.win_put(w, w.rank_base(comm.rank()), &v, 1);  // rank 2 faults here
    comm.win_fence(w);
  });
}

TEST_F(FaultInjectionTest, WindowGetFaultAbortsPeersAtNextFence) {
  set_fault_plan({0, FaultOp::kWinGet, 0});
  expect_fault_rethrown(3, [](Comm& comm) {
    Window w = comm.win_create("t:fault-get", {4, 4, 4});
    double buf[4];
    comm.win_get(w, 0, buf, 4);
    comm.win_fence(w);
  });
}

TEST_F(FaultInjectionTest, WindowAccFaultAbortsPeersAtNextFence) {
  set_fault_plan({1, FaultOp::kWinAcc, 0});
  expect_fault_rethrown(3, [](Comm& comm) {
    Window w = comm.win_create("t:fault-acc", {4, 4, 4});
    const double v = 2.0;
    comm.win_acc(w, 0, &v, 1);
    comm.win_fence(w);
  });
}

TEST_F(FaultInjectionTest, DelayedAccChangesNothingBeforeTheFence) {
  // MC_FAULT_DELAY_MS turns the fault into a stall instead of a throw: a
  // delayed one-sided acc must be fully absorbed by the next fence --
  // correctness depends only on the fence, never on timing.
  FaultPlan plan{1, FaultOp::kWinAcc, 0};
  plan.delay_ms = 50;
  set_fault_plan(plan);
  std::vector<double> out(4, -1.0);
  run_spmd(2, [&](Comm& comm) {
    Window w = comm.win_create("t:delay-acc", {2, 2});
    const double ones[2] = {1.0, 1.0};
    comm.win_acc(w, 0, ones, 2);  // rank 1 stalls 50ms first
    comm.win_acc(w, 2, ones, 2);
    comm.win_fence(w);
    if (comm.rank() == 0) {
      comm.win_get(w, 0, out.data(), 4);
    }
    comm.win_fence(w);
    comm.win_free(w);
  });
  for (double v : out) EXPECT_DOUBLE_EQ(v, 2.0);
}

// ---- call_index semantics ----

TEST_F(FaultInjectionTest, CallIndexCountsOnlyTargetRankCalls) {
  // Fail rank 0 on its SECOND explicit barrier. The first barrier must
  // complete on every rank, proving the counter is per-matching-call and
  // composite collectives' internal syncs don't advance it.
  set_fault_plan({0, FaultOp::kBarrier, 1});
  std::atomic<int> past_first{0};
  expect_fault_rethrown(4, [&](Comm& comm) {
    std::vector<double> buf(4, 1.0);
    comm.allreduce_sum(buf.data(), buf.size());  // internal syncs don't count
    comm.barrier();                              // call 0: succeeds
    past_first.fetch_add(1);
    comm.barrier();  // call 1: rank 0 faults
  });
  EXPECT_EQ(past_first.load(), 4);
}

TEST_F(FaultInjectionTest, OnlyTargetRankThrowsTheInjectedError) {
  set_fault_plan({2, FaultOp::kBarrier, 0});
  std::atomic<int> injected{0}, aborted{0};
  try {
    run_spmd(4, [&](Comm& comm) {
      try {
        comm.barrier();
      } catch (const mc::Error& e) {
        const bool is_injected =
            std::string(e.what()).find("fault injection") !=
            std::string::npos;
        (is_injected ? injected : aborted).fetch_add(1);
        throw;
      }
    });
    FAIL() << "expected rethrow";
  } catch (const mc::Error&) {
  }
  EXPECT_EQ(injected.load(), 1);
  EXPECT_EQ(aborted.load(), 3);
}

// ---- Spawn failure and the job-active guard ----

TEST_F(FaultInjectionTest, SpawnFailureJoinsStartedRanksAndReleasesJob) {
  // Rank 1's std::thread construction "fails": rank 0 is already running
  // and possibly blocked in the barrier. run_spmd must abort it, join it,
  // rethrow -- and clear the job-active flag so the runtime is usable
  // again (regression: the flag used to leak, making every subsequent
  // run_spmd fail with "a job is already active").
  set_fault_plan({1, FaultOp::kSpawn, 0});
  EXPECT_THROW(run_spmd(2, [](Comm& comm) { comm.barrier(); }), mc::Error);

  clear_fault_plan();
  std::atomic<int> ran{0};
  run_spmd(2, [&](Comm& comm) {
    comm.barrier();
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 2);
}

// ---- Every injectable op is a verb the SCF calls ----

TEST_F(FaultInjectionTest, EveryInjectableOpIsReachedByADistScf) {
  // minimpi keeps only the verbs a builder or driver calls, so a hard
  // fault on any of them must surface from a dist-fock SCF. One rank, so
  // that rank 0 issues every verb: at two ranks DLB timing decides whether
  // a given rank opens any F panel, and so whether it ever calls acc.
  const chem::Molecule mol = chem::builders::water();
  core::ParallelScfConfig cfg;
  cfg.algorithm = core::ScfAlgorithm::kDistFock;
  cfg.basis = "STO-3G";
  for (const FaultOp op : injectable_fault_ops()) {
    if (op == FaultOp::kSpawn) continue;  // run_spmd's launch, not a verb
    set_fault_plan({0, op, 0});
    try {
      (void)core::run_parallel_scf(mol, cfg);
      ADD_FAILURE() << fault_op_name(op) << " was never reached";
    } catch (const mc::Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    std::string("failing at ") + fault_op_name(op)),
                std::string::npos)
          << e.what();
    }
  }
}

// ---- Plan management and the environment form ----

TEST_F(FaultInjectionTest, ClearRestoresNormalOperation) {
  set_fault_plan({0, FaultOp::kAllreduceSum, 0});
  clear_fault_plan();
  std::vector<double> out(2, 0.0);
  run_spmd(3, [&](Comm& comm) {
    std::vector<double> buf(2, 1.0);
    comm.allreduce_sum(buf.data(), buf.size());
    if (comm.rank() == 0) out = buf;
  });
  EXPECT_EQ(out[0], 3.0);
}

TEST_F(FaultInjectionTest, PlanIsReArmedOnEachInstall) {
  // The same plan installed twice must fire twice (set resets the counter).
  for (int round = 0; round < 2; ++round) {
    set_fault_plan({0, FaultOp::kBarrier, 0});
    EXPECT_THROW(run_spmd(2, [](Comm& comm) { comm.barrier(); }), mc::Error)
        << "round " << round;
  }
}

TEST_F(FaultInjectionTest, OpNamesRoundTrip) {
  for (FaultOp op : injectable_fault_ops()) {
    EXPECT_EQ(fault_op_from_name(fault_op_name(op)), op);
  }
  EXPECT_EQ(fault_op_from_name("none"), FaultOp::kNone);
  EXPECT_THROW((void)fault_op_from_name("no-such-op"), mc::Error);
}

TEST_F(FaultInjectionTest, EnvPlanParsing) {
  ::unsetenv("MC_FAULT_RANK");
  ::unsetenv("MC_FAULT_OP");
  ::unsetenv("MC_FAULT_CALL");
  EXPECT_FALSE(fault_plan_from_env().enabled());

  ::setenv("MC_FAULT_RANK", "2", 1);
  ::setenv("MC_FAULT_OP", "allreduce_sum", 1);
  ::setenv("MC_FAULT_CALL", "3", 1);
  const FaultPlan p = fault_plan_from_env();
  EXPECT_TRUE(p.enabled());
  EXPECT_EQ(p.rank, 2);
  EXPECT_EQ(p.op, FaultOp::kAllreduceSum);
  EXPECT_EQ(p.call_index, 3);

  ::setenv("MC_FAULT_OP", "win_acc", 1);
  ::setenv("MC_FAULT_DELAY_MS", "25", 1);
  const FaultPlan pd = fault_plan_from_env();
  EXPECT_EQ(pd.op, FaultOp::kWinAcc);
  EXPECT_EQ(pd.delay_ms, 25);
  ::unsetenv("MC_FAULT_DELAY_MS");

  ::setenv("MC_FAULT_OP", "bogus", 1);
  EXPECT_THROW((void)fault_plan_from_env(), mc::Error);
  ::unsetenv("MC_FAULT_RANK");
  ::unsetenv("MC_FAULT_OP");
  ::unsetenv("MC_FAULT_CALL");
}

}  // namespace
}  // namespace mc::par
