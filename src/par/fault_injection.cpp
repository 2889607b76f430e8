#include "par/fault_injection.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"

namespace mc::par {

namespace {

// The plan is written rarely (test setup) and read on every collective
// entry, so keep the fast path to one relaxed atomic load of `g_armed`.
std::mutex g_plan_mu;
FaultPlan g_plan;
std::atomic<bool> g_armed{false};
std::atomic<long> g_calls{0};
std::once_flag g_env_once;

}  // namespace

void set_fault_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lk(g_plan_mu);
  g_plan = plan;
  g_calls.store(0, std::memory_order_relaxed);
  g_armed.store(plan.enabled(), std::memory_order_release);
}

void clear_fault_plan() { set_fault_plan(FaultPlan{}); }

const char* fault_op_name(FaultOp op) {
  switch (op) {
    case FaultOp::kNone: return "none";
    case FaultOp::kSpawn: return "spawn";
    case FaultOp::kBarrier: return "barrier";
    case FaultOp::kAllreduceSum: return "allreduce_sum";
    case FaultOp::kAllreduceMax: return "allreduce_max";
    case FaultOp::kDlbReset: return "dlb_reset";
    case FaultOp::kWinPut: return "win_put";
    case FaultOp::kWinGet: return "win_get";
    case FaultOp::kWinAcc: return "win_acc";
    case FaultOp::kWinFence: return "win_fence";
  }
  return "unknown";
}

const std::vector<FaultOp>& injectable_fault_ops() {
  static const std::vector<FaultOp> ops = {
      FaultOp::kSpawn,        FaultOp::kBarrier,  FaultOp::kAllreduceSum,
      FaultOp::kAllreduceMax, FaultOp::kDlbReset, FaultOp::kWinPut,
      FaultOp::kWinGet,       FaultOp::kWinAcc,   FaultOp::kWinFence};
  return ops;
}

FaultOp fault_op_from_name(const std::string& name) {
  if (name == fault_op_name(FaultOp::kNone)) return FaultOp::kNone;
  for (FaultOp op : injectable_fault_ops()) {
    if (name == fault_op_name(op)) return op;
  }
  throw mc::Error("fault injection: unknown MC_FAULT_OP '" + name + "'");
}

std::string fault_plan_env_string(const FaultPlan& plan) {
  if (!plan.enabled()) return "";
  std::ostringstream os;
  os << "MC_FAULT_RANK=" << plan.rank
     << " MC_FAULT_OP=" << fault_op_name(plan.op)
     << " MC_FAULT_CALL=" << plan.call_index;
  if (plan.delay_ms > 0) os << " MC_FAULT_DELAY_MS=" << plan.delay_ms;
  return os.str();
}

FaultPlan random_fault_plan(std::uint64_t bits, int nranks) {
  if (nranks < 1) nranks = 1;
  // Pure bit-slicing keeps the mapping identical on every platform (no
  // std::uniform_int_distribution, whose draws are stdlib-specific).
  FaultPlan plan;
  plan.rank = static_cast<int>((bits >> 0) % static_cast<std::uint64_t>(nranks));
  // kSpawn is excluded: spawn faults kill the job before the body runs, so
  // they exercise run_spmd's launch path (covered by its own test), not the
  // protocols the soak is after.
  const std::vector<FaultOp>& ops = injectable_fault_ops();
  const std::size_t nops = ops.size() - 1;  // minus kSpawn at index 0
  plan.op = ops[1 + static_cast<std::size_t>((bits >> 8) % nops)];
  plan.call_index = static_cast<long>((bits >> 16) % 8);
  if (((bits >> 24) & 0x3) == 0) {
    plan.delay_ms = 1 + static_cast<long>((bits >> 32) % 16);
  }
  return plan;
}

FaultPlan fault_plan_from_env() {
  FaultPlan plan;
  const char* rank = std::getenv("MC_FAULT_RANK");
  const char* op = std::getenv("MC_FAULT_OP");
  if (rank == nullptr || op == nullptr) return plan;  // disabled
  try {
    plan.rank = std::stoi(rank);
  } catch (const std::exception&) {
    throw mc::Error(std::string("fault injection: bad MC_FAULT_RANK '") +
                    rank + "'");
  }
  plan.op = fault_op_from_name(op);
  if (const char* call = std::getenv("MC_FAULT_CALL")) {
    try {
      plan.call_index = std::stol(call);
    } catch (const std::exception&) {
      throw mc::Error(std::string("fault injection: bad MC_FAULT_CALL '") +
                      call + "'");
    }
  }
  if (const char* delay = std::getenv("MC_FAULT_DELAY_MS")) {
    try {
      plan.delay_ms = std::stol(delay);
    } catch (const std::exception&) {
      throw mc::Error(std::string("fault injection: bad MC_FAULT_DELAY_MS '") +
                      delay + "'");
    }
  }
  return plan;
}

void install_env_fault_plan_once() {
  std::call_once(g_env_once, [] {
    const FaultPlan plan = fault_plan_from_env();
    if (plan.enabled()) set_fault_plan(plan);
  });
}

void maybe_inject_fault(int rank, FaultOp op) {
  if (!g_armed.load(std::memory_order_acquire)) return;
  FaultPlan plan;
  {
    std::lock_guard<std::mutex> lk(g_plan_mu);
    plan = g_plan;
  }
  if (!plan.enabled() || plan.rank != rank || plan.op != op) return;
  // Only the target rank's matching calls advance the counter, so
  // call_index means "the Nth time *this rank* enters *this op*".
  const long seen = g_calls.fetch_add(1, std::memory_order_relaxed);
  if (seen != plan.call_index) return;
  if (plan.delay_ms > 0) {
    // Delay fault: the op goes through, late. One-sided semantics promise
    // callers nothing about completion timing before the next fence, so a
    // correct program is unaffected (the tests assert exactly that).
    std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
    return;
  }
  std::ostringstream msg;
  msg << "fault injection: rank " << rank << " failing at "
      << fault_op_name(op) << " call " << seen;
  throw mc::Error(msg.str());
}

}  // namespace mc::par
