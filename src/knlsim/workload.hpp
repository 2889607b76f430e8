#pragma once
// Workload model: turns (molecule, basis, screening threshold) into the
// task-size distributions the schedule simulator needs, using the *real*
// Schwarz bounds of the actual basis/geometry.
//
// Pair bounds Q_ab = sqrt(max (ab|ab)) are evaluated with the production
// ERI kernel, accelerated by a radial interpolation table per shell-type
// pair (graphene has one atom type, so only ~21 type pairs exist; the
// bound depends on the pair distance to well under a percent, which is
// ample for a performance model -- see DESIGN.md). Distant pairs beyond a
// conservative cutoff are exactly zero at any realistic threshold.
//
// Task costs:
//  * task_cost[p]   -- host-core seconds for canonical pair task p
//                      (Algorithms 1 & 3: the kl-loop under pair p),
//                      including the triangular kl <= ij constraint via the
//                      surviving-index-fraction approximation;
//  * i_task_cost[i] -- the same aggregated per i shell (Algorithm 2's
//                      coarse MPI granularity).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "knlsim/cost_model.hpp"

namespace mc::knlsim {

struct WorkloadOptions {
  /// Quartet screening threshold (GAMESS-like default).
  double tau = 1e-10;
  /// Pairs separated by more than this are treated as screened out
  /// (exp(-mu R^2) is ~1e-20 at 25 bohr for 6-31G(d) carbon).
  double pair_cutoff_bohr = 25.0;
  /// Radial table resolution for the Q(type-pair, R) interpolation.
  double radial_step_bohr = 0.05;
};

struct PairTask {
  std::uint32_t i = 0;       ///< bra shell i of the canonical pair
  std::uint32_t idx = 0;     ///< canonical pair index i(i+1)/2 + j
  float q = 0.0f;            ///< Schwarz bound Q_ij
  std::uint8_t cls = 0;      ///< angular class: l_i + l_j (0..4)
  std::uint16_t nprim = 0;   ///< primitive pairs in the contraction
};

class Workload {
 public:
  /// Builds the workload for a molecule in the named basis.
  Workload(const chem::Molecule& mol, const std::string& basis,
           const EriCostTable& costs, WorkloadOptions opt = {});

  [[nodiscard]] std::size_t nshells() const { return nshells_; }
  [[nodiscard]] std::size_t nbf() const { return nbf_; }
  [[nodiscard]] std::size_t npairs_total() const { return npairs_total_; }
  [[nodiscard]] std::size_t npairs_surviving() const {
    return pairs_.size();
  }
  [[nodiscard]] double qmax() const { return qmax_; }
  [[nodiscard]] double tau() const { return opt_.tau; }

  /// Surviving canonical pairs in pair-index order.
  [[nodiscard]] const std::vector<PairTask>& pairs() const { return pairs_; }

  /// Host-core seconds for each surviving pair task (triangular-adjusted):
  /// the Algorithm 1/3 MPI task sizes, in the DLB claim order.
  [[nodiscard]] const std::vector<double>& task_cost() const {
    return task_cost_;
  }
  /// Host-core seconds aggregated per i shell: Algorithm 2 task sizes.
  [[nodiscard]] const std::vector<double>& i_task_cost() const {
    return i_task_cost_;
  }
  /// Total Fock-build work, host-core seconds (= sum of task_cost).
  [[nodiscard]] double total_host_seconds() const { return total_seconds_; }
  /// Estimated surviving quartet count.
  [[nodiscard]] double quartets_estimate() const { return quartets_; }

  /// kl-loop trip counts (screening checks + chunk dispatches) aggregated
  /// per i shell, matching i_task_cost.
  [[nodiscard]] const std::vector<double>& i_task_kl_iters() const {
    return i_task_kl_;
  }

 private:
  WorkloadOptions opt_;
  std::size_t nshells_ = 0;
  std::size_t nbf_ = 0;
  std::size_t npairs_total_ = 0;
  double qmax_ = 0.0;
  std::vector<PairTask> pairs_;
  std::vector<double> task_cost_;
  std::vector<double> i_task_cost_;
  std::vector<double> i_task_kl_;
  double total_seconds_ = 0.0;
  double quartets_ = 0.0;
};

}  // namespace mc::knlsim
