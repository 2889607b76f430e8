#pragma once
// Fault injection for the minimpi runtime.
//
// The abort protocol (AbortableBarrier::abort in run_spmd) is the only
// thing standing between "one rank threw" and "every surviving rank
// deadlocks inside a collective". That protocol is worthless unless it is
// exercised, so this hook lets tests (or an operator, via environment
// variables) make a chosen rank throw at a chosen call site:
//
//   FaultPlan{.rank = 1, .op = FaultOp::kAllreduceSum, .call_index = 0}
//
// makes rank 1 throw mc::Error on its first allreduce_sum entry while its
// peers are already blocked inside the collective -- exactly the scenario
// the abort propagation must survive without hanging.
//
// Environment-driven form (picked up once, at the first run_spmd):
//   MC_FAULT_RANK=1 MC_FAULT_OP=allreduce_sum MC_FAULT_CALL=0 ./app
//
// The hook is a single relaxed atomic load on the hot path when no plan is
// installed, so leaving it compiled in costs nothing measurable next to an
// ERI batch.

#include <cstdint>
#include <string>
#include <vector>

namespace mc::par {

/// Call sites that can be made to fail. kSpawn is the run_spmd thread
/// creation loop (simulates std::thread resource exhaustion); the rest are
/// the Comm entry points, including the one-sided window operations
/// (win_put/win_get/win_acc/win_fence) the distributed Fock builder uses.
enum class FaultOp {
  kNone,
  kSpawn,
  kBarrier,
  kAllreduceSum,
  kAllreduceMax,
  kDlbReset,
  kWinPut,
  kWinGet,
  kWinAcc,
  kWinFence,
};

/// A single planned failure: `rank` throws mc::Error on its
/// `call_index`-th (0-based) entry into `op` -- unless `delay_ms > 0`, in
/// which case the matching call *stalls* for that long instead of failing
/// (models a slow/late one-sided get or acc; correctness must not depend
/// on one-sided completion timing, only on fences).
struct FaultPlan {
  int rank = -1;
  FaultOp op = FaultOp::kNone;
  long call_index = 0;
  long delay_ms = 0;

  [[nodiscard]] bool enabled() const {
    return rank >= 0 && op != FaultOp::kNone;
  }
};

/// Install a plan (replacing any previous one) and reset the call counter.
void set_fault_plan(const FaultPlan& plan);
/// Remove the installed plan.
void clear_fault_plan();

/// Parse MC_FAULT_RANK / MC_FAULT_OP / MC_FAULT_CALL / MC_FAULT_DELAY_MS.
/// Returns a disabled plan when MC_FAULT_RANK or MC_FAULT_OP is unset;
/// throws mc::Error on a malformed value.
[[nodiscard]] FaultPlan fault_plan_from_env();

/// One-shot: install fault_plan_from_env() the first time this is called
/// (run_spmd calls it so `MC_FAULT_*` works on any binary). Subsequent
/// calls are no-ops; explicit set/clear always wins.
void install_env_fault_plan_once();

/// Stable names used by MC_FAULT_OP and error messages.
[[nodiscard]] const char* fault_op_name(FaultOp op);
[[nodiscard]] FaultOp fault_op_from_name(const std::string& name);

/// Every injectable op (everything except kNone), in a stable order. The
/// soak harness draws from this list when randomizing fault plans.
[[nodiscard]] const std::vector<FaultOp>& injectable_fault_ops();

/// The MC_FAULT_* environment assignment that reproduces `plan`, e.g.
/// "MC_FAULT_RANK=1 MC_FAULT_OP=win_acc MC_FAULT_CALL=3". Disabled plans
/// render as "" (no fault). Failure messages print this so any randomized
/// soak failure is a copy-paste deterministic repro.
[[nodiscard]] std::string fault_plan_env_string(const FaultPlan& plan);

/// Deterministically derive a fault plan from 64 random bits (the soak
/// harness's per-job seed material -- pure function, no hidden RNG state):
/// rank in [0, nranks), op drawn from injectable_fault_ops() minus kSpawn,
/// call_index in [0, 8), and roughly one plan in four is a delay fault
/// (1..16 ms stall) instead of a hard failure.
[[nodiscard]] FaultPlan random_fault_plan(std::uint64_t bits, int nranks);

/// Hook placed at every injectable call site: throws mc::Error if the
/// installed plan matches (rank, op) and the call count has been reached.
void maybe_inject_fault(int rank, FaultOp op);

}  // namespace mc::par
