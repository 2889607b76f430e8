#include "knlsim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <vector>

#include "common/error.hpp"

namespace mc::knlsim {

namespace {

constexpr double kKlIterSeconds = 3.0e-9;  ///< one Schwarz check + dispatch

struct Placement {
  int cores_used = 1;
  int threads_per_core = 1;
  double per_thread_speed = 1.0;  ///< vs one thread alone on one core
};

Placement place_threads(const KnlNode& node, const KnlCalibration& calib,
                        int total_threads, Affinity affinity) {
  Placement p;
  total_threads = std::max(1, total_threads);
  switch (affinity) {
    case Affinity::kCompact: {
      // Fill all hardware threads of a core before the next core.
      p.threads_per_core = std::min(node.max_threads_per_core, total_threads);
      p.cores_used = (total_threads + p.threads_per_core - 1) /
                     p.threads_per_core;
      break;
    }
    case Affinity::kNone:
    case Affinity::kScatter:
    case Affinity::kBalanced: {
      p.cores_used = std::min(total_threads, node.cores);
      p.threads_per_core = (total_threads + node.cores - 1) / node.cores;
      break;
    }
  }
  p.threads_per_core =
      std::min(p.threads_per_core, node.max_threads_per_core);
  p.per_thread_speed =
      calib.smt_yield[static_cast<std::size_t>(p.threads_per_core)] /
      p.threads_per_core;
  if (affinity == Affinity::kNone) {
    p.per_thread_speed *= 0.88;  // OS migration / no pinning
  } else if (affinity == Affinity::kBalanced) {
    p.per_thread_speed *= 1.02;  // siblings share L2 working set
  }
  return p;
}

/// List-scheduling makespan: tasks assigned in claim order to the earliest
/// available worker. Returns (makespan, perfect_split).
std::pair<double, double> makespan(const std::vector<double>& tasks,
                                   int workers) {
  double total = 0.0;
  for (double t : tasks) total += t;
  if (workers <= 1) return {total, total};
  // Min-heap of worker available-times.
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  for (int w = 0; w < workers; ++w) heap.push(0.0);
  for (double t : tasks) {
    if (t <= 0.0) continue;
    const double avail = heap.top();
    heap.pop();
    heap.push(avail + t);
  }
  double mk = 0.0;
  while (!heap.empty()) {
    mk = heap.top();
    heap.pop();
  }
  return {mk, total / workers};
}

/// Static block decomposition: worker r owns the contiguous index range
/// [r n / W, (r+1) n / W). Returns (makespan, perfect_split). Ablation of
/// the paper's dynamic load balancing.
std::pair<double, double> makespan_static(const std::vector<double>& tasks,
                                          int workers) {
  double total = 0.0;
  for (double t : tasks) total += t;
  if (workers <= 1) return {total, total};
  const std::size_t n = tasks.size();
  double mk = 0.0;
  for (int w = 0; w < workers; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) /
                           static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    double sum = 0.0;
    for (std::size_t i = lo; i < hi; ++i) sum += tasks[i];
    mk = std::max(mk, sum);
  }
  return {mk, total / workers};
}

}  // namespace

SimResult Simulator::run(const SimConfig& cfg) const {
  const Workload& wl = *wl_;
  const KnlNode& node = machine_.node;
  SimResult res;
  MC_CHECK(cfg.nodes >= 1, "need at least one node");
  MC_CHECK(cfg.nodes <= machine_.max_nodes,
           "node count exceeds the machine");

  const double capacity = node.capacity_bytes(cfg.memory_mode);
  const int hw = node.hw_threads();

  // ---- Resolve the node layout under the memory constraint. ----
  int ranks = cfg.ranks_per_node;
  int threads = cfg.threads_per_rank;
  auto bytes_for = [&](int r, int t) {
    // The dist-Fock footprint shrinks with the *total* rank count (the
    // windows are block-distributed); the replicated models do not.
    const double model =
        cfg.algorithm == ScfAlgorithm::kDistFock
            ? core::model_dist_fock_bytes_per_node(wl.nbf(), {r, 1},
                                                   cfg.nodes)
            : core::model_bytes_per_node(cfg.algorithm, wl.nbf(),
                                         {r, std::max(1, t)});
    return model + node.fixed_bytes_per_rank * r;
  };

  if (cfg.algorithm == ScfAlgorithm::kMpiOnly ||
      cfg.algorithm == ScfAlgorithm::kDistFock) {
    threads = 1;
    if (ranks < 0) ranks = hw;
    while (ranks >= 1 && bytes_for(ranks, 1) > capacity) {
      ranks = (ranks > 1) ? ranks / 2 : 0;
    }
    if (ranks < 1) {
      res.infeasible_reason = "replicated matrices exceed node memory";
      return res;
    }
  } else {
    if (ranks < 0) ranks = 4;  // the paper's hybrid configuration
    if (threads < 0) {
      threads = std::max(1, hw / ranks);
      // Private Fock: thread-replicated matrices may not fit; back off as
      // a user would (this is the 5 nm feasibility story, Figure 7).
      while (threads > 1 && bytes_for(ranks, threads) > capacity) {
        threads /= 2;
      }
    }
    if (bytes_for(ranks, threads) > capacity) {
      res.infeasible_reason = "replicated matrices exceed node memory";
      return res;
    }
  }
  res.ranks_per_node = ranks;
  res.threads_per_rank = threads;

  // ---- Per-thread throughput from placement and SMT yield. ----
  const Placement pl =
      place_threads(node, calib_, ranks * threads, cfg.affinity);

  // ---- Memory & cluster multipliers on the quartet inner loop. ----
  const double stream_bytes =
      cfg.algorithm == ScfAlgorithm::kDistFock
          ? core::model_dist_fock_bytes_per_node(wl.nbf(), {ranks, 1},
                                                 cfg.nodes)
          : core::model_bytes_per_node(cfg.algorithm, wl.nbf(),
                                       {ranks, threads});
  const double bw_eff =
      calib_.effective_bandwidth(node, cfg.memory_mode, stream_bytes);
  const double nominal_bw = 0.92 * node.mcdram_bw;
  const double cluster = calib_.cluster_factor(cfg.cluster_mode);
  double traffic_mult = (nominal_bw / bw_eff) * cluster;
  if (cfg.algorithm == ScfAlgorithm::kSharedFock) {
    // 1/6 of the scatter traffic is the direct shared-F_kl write, which
    // pays the tag-directory penalty in all-to-all mode.
    traffic_mult *=
        (5.0 + calib_.shared_write_penalty(cfg.cluster_mode)) / 6.0;
  }
  if (cfg.algorithm == ScfAlgorithm::kMpiOnly && ranks > 1) {
    // Rank-replicated matrices defeat L2 sharing between the hardware
    // threads of a tile (the paper's cache-utilization argument).
    traffic_mult *=
        1.0 + calib_.replication_l2_tax * std::log2(static_cast<double>(ranks));
  }
  const double mem_mult = (1.0 - calib_.memory_fraction) +
                          calib_.memory_fraction * traffic_mult;

  // host-core seconds -> KNL wall seconds for one cooperating worker.
  double conv = mem_mult / (calib_.knl_core_ratio * pl.per_thread_speed);
  if (cfg.algorithm == ScfAlgorithm::kSharedFock) {
    conv *= 1.0 + calib_.shared_fock_contention * threads;
  }

  const int total_ranks = ranks * cfg.nodes;
  const double barrier = calib_.barrier_seconds(threads) * cluster;
  const double flush_bytes =
      2.0 * static_cast<double>(wl.nbf()) * 6.0 * sizeof(double);
  const double flush_s = flush_bytes / bw_eff + barrier;

  // ---- Build the rank-level task list. ----
  std::vector<double> tasks;
  double uniform_extra = 0.0;  // per-rank costs spread evenly
  double sync_total = 0.0;     // per-rank sync cost (already uniform)
  double flush_total = 0.0;

  switch (cfg.algorithm) {
    case ScfAlgorithm::kMpiOnly: {
      tasks.reserve(wl.pairs().size());
      for (std::size_t p = 0; p < wl.pairs().size(); ++p) {
        const double work = wl.task_cost()[p] * conv;
        const double checks = (static_cast<double>(wl.pairs()[p].idx) + 1) *
                              kKlIterSeconds * conv;
        tasks.push_back(work + checks);
      }
      // Pairs screened out at pair level still burn a DLB claim and their
      // kl screening sweep (Algorithm 1 has no ij prescreen).
      const double ns = static_cast<double>(wl.npairs_total());
      const double surv = static_cast<double>(wl.npairs_surviving());
      const double dead_checks =
          (ns * ns / 2.0 - 0.5 * surv * ns) * kKlIterSeconds * conv;
      uniform_extra +=
          (dead_checks + ns * calib_.dlb_rtt_s) / total_ranks;
      sync_total += ns * calib_.dlb_rtt_s / total_ranks;
      break;
    }
    case ScfAlgorithm::kPrivateFock: {
      tasks.reserve(wl.i_task_cost().size());
      for (std::size_t i = 0; i < wl.i_task_cost().size(); ++i) {
        const double work = wl.i_task_cost()[i] * conv / threads;
        const double checks =
            wl.i_task_kl_iters()[i] * kKlIterSeconds * conv / threads;
        tasks.push_back(work + checks + barrier + calib_.dlb_rtt_s);
      }
      sync_total += static_cast<double>(wl.nshells()) *
                    (barrier + calib_.dlb_rtt_s) / total_ranks;
      // End-of-build reduction of T thread-private copies.
      const double n2bytes =
          static_cast<double>(wl.nbf()) * wl.nbf() * sizeof(double);
      flush_total += 2.0 * n2bytes / bw_eff;
      break;
    }
    case ScfAlgorithm::kSharedFock: {
      tasks.reserve(wl.pairs().size());
      for (std::size_t p = 0; p < wl.pairs().size(); ++p) {
        const double work = wl.task_cost()[p] * conv / threads;
        const double checks = (static_cast<double>(wl.pairs()[p].idx) + 1) *
                              kKlIterSeconds * conv / threads;
        const double over = 2.0 * barrier + flush_s + calib_.dlb_rtt_s;
        tasks.push_back(work + checks + over);
        flush_total += flush_s / total_ranks;
        sync_total += (2.0 * barrier + calib_.dlb_rtt_s) / total_ranks;
      }
      // Prescreened ij pairs still cost a claim + barrier on some rank.
      const double dead = static_cast<double>(wl.npairs_total()) -
                          static_cast<double>(wl.npairs_surviving());
      uniform_extra += dead * (calib_.dlb_rtt_s + barrier) / total_ranks;
      sync_total += dead * (calib_.dlb_rtt_s + barrier) / total_ranks;
      break;
    }
    case ScfAlgorithm::kDistFock: {
      // Algorithm 4 (this repo): the MPI-only pair loop -- single-threaded
      // ranks, same DLB claims and kl sweeps -- but the N^2 gsumf is
      // replaced by one-sided window traffic. Each rank streams about
      // 2 N^2 / N_ranks doubles of density tiles in (each fetched once per
      // build) and accs the same volume of F panels out.
      tasks.reserve(wl.pairs().size());
      for (std::size_t p = 0; p < wl.pairs().size(); ++p) {
        const double work = wl.task_cost()[p] * conv;
        const double checks = (static_cast<double>(wl.pairs()[p].idx) + 1) *
                              kKlIterSeconds * conv;
        tasks.push_back(work + checks);
      }
      const double ns = static_cast<double>(wl.npairs_total());
      const double surv = static_cast<double>(wl.npairs_surviving());
      const double dead_checks =
          (ns * ns / 2.0 - 0.5 * surv * ns) * kKlIterSeconds * conv;
      uniform_extra += (dead_checks + ns * calib_.dlb_rtt_s) / total_ranks;
      sync_total += ns * calib_.dlb_rtt_s / total_ranks;
      const double win_bytes = 2.0 * static_cast<double>(wl.nbf()) *
                               wl.nbf() * sizeof(double) / total_ranks;
      flush_total += 2.0 * win_bytes / bw_eff;  // every get and every acc
      break;
    }
  }

  auto [mk, perfect] = cfg.dynamic_load_balance
                           ? makespan(tasks, total_ranks)
                           : makespan_static(tasks, total_ranks);

  // Global DLB counter throughput floor: every claim serializes on one
  // remote atomic (only binds at extreme rank counts).
  const double counter_gap = calib_.dlb_counter_gap_s;
  const double claims =
      (cfg.algorithm == ScfAlgorithm::kPrivateFock)
          ? static_cast<double>(wl.nshells())
          : static_cast<double>(wl.npairs_total());
  const double counter_floor = (cfg.nodes > 1) ? claims * counter_gap : 0.0;

  const double build = std::max(mk + uniform_extra, counter_floor);

  // ---- ddi_gsumf over all ranks. ----
  const double n2bytes =
      static_cast<double>(wl.nbf()) * wl.nbf() * sizeof(double);
  const double reduction =
      calib_.allreduce_seconds(machine_.network, n2bytes, total_ranks, ranks);

  res.feasible = true;
  res.seconds = (build + reduction + flush_total) * cfg.scf_iterations;
  res.breakdown.eri_s = perfect * cfg.scf_iterations;
  res.breakdown.imbalance_s = (mk - perfect) * cfg.scf_iterations;
  res.breakdown.sync_s = sync_total * cfg.scf_iterations;
  res.breakdown.flush_s = flush_total * cfg.scf_iterations;
  res.breakdown.reduction_s = reduction * cfg.scf_iterations;
  return res;
}

}  // namespace mc::knlsim
