#pragma once
// Cauchy-Schwarz integral screening (paper section 4.1):
//   |(ij|kl)| <= Q_ij * Q_kl,  Q_ij = sqrt(max over components (ij|ij)).
// Screening is what makes the ERI tensor sparse for extended systems and is
// applied in all three of the paper's algorithms; the shared-Fock algorithm
// additionally prescreens whole (ij) MPI tasks (Algorithm 3 line 13).
//
// Two extensions beyond the static bound (DESIGN.md section 9):
//  * Density-weighted bounds: in direct SCF the Fock matrix is built from
//    the density *difference*, so a quartet only matters if
//    Q_ij * Q_kl * max|D block| clears the threshold -- the bound tightens
//    as SCF converges and kills an increasing fraction of quartets.
//  * Precomputed screened pair lists: the surviving (i,j) bra pairs are
//    compacted once per geometry and sorted largest-Q-first, replacing the
//    sqrt-decode of flat pair indices and the full N(N+1)/2 DLB range in
//    the Fock builders with iteration over a shorter, better-ordered list.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ints/eri.hpp"
#include "ints/point_group.hpp"

namespace mc::ints {

/// One surviving (i, j) bra shell pair of the compacted screening lists
/// (i >= j). `canonical` is the flat canonical pair index i*(i+1)/2 + j the
/// merged-index loops of Algorithm 3 bound their kl sweep with.
struct ScreenedPair {
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t canonical = 0;
  double q = 0.0;  ///< Schwarz bound Q_ij
};

class Screening {
 public:
  /// Computes the shell-pair Schwarz bounds Q with the given engine, and
  /// detects the basis's point group (PointGroup::detect).
  /// `threshold`: quartets with Q_ij*Q_kl below it are skipped (GAMESS
  /// default integral cutoff is 1e-9; we default to 1e-10).
  /// The O(nshells^2) diagonal (ij|ij) loop is OpenMP-parallel.
  Screening(const EriEngine& eri, double threshold = 1e-10);

  [[nodiscard]] double q(std::size_t s1, std::size_t s2) const {
    return q_[s1 * nshells_ + s2];
  }
  [[nodiscard]] double qmax() const { return qmax_; }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] std::size_t nshells() const { return nshells_; }
  /// The basis's point group. Everything else here keeps its C1 meaning:
  /// the Fock builders apply the group in scf::QuartetCascade.
  [[nodiscard]] const PointGroup& point_group() const { return group_; }

  /// True if the quartet survives the static Schwarz bound.
  [[nodiscard]] bool keep(std::size_t i, std::size_t j, std::size_t k,
                          std::size_t l) const {
    return q(i, j) * q(k, l) >= threshold_;
  }
  /// Density-weighted bound (direct-SCF delta builds): the quartet's
  /// largest possible Fock contribution is Q_ij * Q_kl * Dmax, where Dmax
  /// bounds the density blocks the quartet contracts against (see
  /// scf::FockContext::quartet_dmax). `scale` tightens the threshold for
  /// incremental builds so skipped contributions stay below the
  /// accumulation error budget.
  [[nodiscard]] bool keep(std::size_t i, std::size_t j, std::size_t k,
                          std::size_t l, double dmax,
                          double scale = 1.0) const {
    return q(i, j) * q(k, l) * dmax >= threshold_ * scale;
  }
  /// True if the (ij) pair can survive with *any* partner pair
  /// (the shared-Fock algorithm's ij prescreen).
  [[nodiscard]] bool keep_pair(std::size_t i, std::size_t j) const {
    return q(i, j) * qmax_ >= threshold_;
  }
  /// Density-weighted pair prescreen: safe because Q_kl <= qmax and every
  /// density block any partner quartet touches is bounded by `dmax`.
  [[nodiscard]] bool keep_pair(std::size_t i, std::size_t j, double dmax,
                               double scale = 1.0) const {
    return q(i, j) * qmax_ * dmax >= threshold_ * scale;
  }

  /// Statically surviving (i,j) pairs, Schwarz-descending (ties broken by
  /// canonical index so every rank builds the identical list -- the DLB
  /// counter indexes into it). Largest-first order front-loads the heavy
  /// tasks, shrinking the dynamic-load-balance tail.
  [[nodiscard]] const std::vector<ScreenedPair>& sorted_pairs() const {
    return sorted_pairs_;
  }
  /// The same pairs grouped by bra shell i -- groups in descending
  /// estimated-work order, pairs within a group Schwarz-descending. The
  /// shared-Fock builder iterates this variant so its lazy FI flush (which
  /// fires on i changes) keeps flushing once per shell, not once per pair.
  [[nodiscard]] const std::vector<ScreenedPair>& bra_grouped_pairs() const {
    return bra_grouped_pairs_;
  }
  /// Bra shells with at least one surviving pair, in descending
  /// estimated-quartet-work order (the private-Fock builder's MPI-level
  /// task list).
  [[nodiscard]] const std::vector<std::size_t>& sorted_bra_shells() const {
    return sorted_bra_shells_;
  }
  /// Precomputed canonical-pair decode: shells (i, j) of flat pair index p
  /// (i >= j). The hot kl loops use it instead of a per-iteration sqrt
  /// decode.
  [[nodiscard]] std::pair<std::size_t, std::size_t> pair_shells(
      std::size_t p) const {
    return {pair_i_[p], pair_j_[p]};
  }

  /// Exact count of canonical quartets surviving screening (the loop
  /// structure of Algorithm 1). O(Nshells^4 / 8) -- test-scale systems only.
  [[nodiscard]] std::size_t count_surviving_quartets() const;
  /// Total canonical quartets without screening.
  [[nodiscard]] std::size_t total_quartets() const;

 private:
  void build_pair_lists();

  std::size_t nshells_ = 0;
  double threshold_ = 0.0;
  double qmax_ = 0.0;
  std::vector<double> q_;  // full nshells x nshells, symmetric
  std::vector<std::uint32_t> pair_i_, pair_j_;  // canonical decode table
  std::vector<ScreenedPair> sorted_pairs_;
  std::vector<ScreenedPair> bra_grouped_pairs_;
  std::vector<std::size_t> sorted_bra_shells_;
  PointGroup group_;
};

}  // namespace mc::ints
