#pragma once
// FockBuilder: the pluggable strategy for the two-electron ("skeleton")
// Fock matrix accumulation -- the computational core the paper optimizes.
//
// Contract:
//   * build(D, G, ctx) accumulates the skeleton two-electron matrix into G
//     (G is zeroed by the caller). D is the symmetric density the
//     integrals are contracted against -- the full density for a
//     conventional build, the density *difference* for an incremental
//     (direct-SCF) build. ctx carries the per-shell-pair block norms of D
//     for density-weighted screening; the default FockContext{} is the
//     trivial "full density" context that reduces every builder to the
//     static Schwarz bound.
//   * The *symmetrized* G_sym = (G + G^T)/2 then satisfies
//       G_sym[a,b] ~= sum_cd D[c,d] ( (ab|cd) - 1/2 (ac|bd) )
//     up to the screening threshold.
//   * For distributed builders, build() is a collective call: every rank
//     passes the same D and every rank's G holds the fully reduced result
//     on return.
//
// The canonical shell-quartet scatter shared by all implementations lives
// in scatter_quartet() below; the implementations differ only in *where*
// each of the six updates (paper eqs. 2a-2f) is accumulated and how the
// quartet loop is distributed -- which is exactly the paper's subject.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"

namespace mc::scf {

/// Per-iteration density information threaded through FockBuilder::build
/// (DESIGN.md section 9). For an incremental direct-SCF build the density
/// argument is the delta density D_n - D_{n-1}; this context carries its
/// per-shell-pair block norms so screening can use the density-weighted
/// bound Q_ij * Q_kl * max|D block| -- which kills an increasing fraction
/// of quartets as SCF converges. A default-constructed context is the
/// trivial "full density" context: no weighting, static Schwarz only.
struct FockContext {
  /// max|D| over each shell-pair block, nshells x nshells symmetric.
  /// Empty = trivial context (no density weighting).
  std::vector<double> dmax;
  std::size_t nshells = 0;
  /// Global max over all blocks (the pair-level prescreen bound).
  double dmax_max = 0.0;
  /// Multiplier on the Schwarz threshold for this build; incremental
  /// builds use < 1 (tighter) so that skipped delta contributions stay
  /// well below the accumulated-Fock error budget.
  double threshold_scale = 1.0;
  /// True when the density being contracted is a delta density.
  bool incremental = false;

  [[nodiscard]] bool weighted() const { return !dmax.empty(); }
  [[nodiscard]] double pair_dmax(std::size_t a, std::size_t b) const {
    return dmax[a * nshells + b];
  }
  /// Bound on the density blocks quartet (i,j,k,l) contracts against: the
  /// max over the six blocks of paper eqs. 2a-2f, times 4 to stay safely
  /// above the Coulomb degeneracy weights (Haser-Ahlrichs style bound).
  [[nodiscard]] double quartet_dmax(std::size_t i, std::size_t j,
                                    std::size_t k, std::size_t l) const {
    double m = pair_dmax(i, j);
    m = std::max(m, pair_dmax(k, l));
    m = std::max(m, pair_dmax(i, k));
    m = std::max(m, pair_dmax(i, l));
    m = std::max(m, pair_dmax(j, k));
    m = std::max(m, pair_dmax(j, l));
    return 4.0 * m;
  }

  /// Computes the block norms of `d` (any symmetric matrix in the basis's
  /// function dimension -- a density or a density difference).
  static FockContext from_density(const basis::BasisSet& bs,
                                  const la::Matrix& d, bool incremental);
};

class FockBuilder {
 public:
  virtual ~FockBuilder() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Context-aware build (see the header comment for the contract).
  virtual void build(const la::Matrix& density, la::Matrix& g,
                     const FockContext& ctx) = 0;
  /// Full-density convenience overload: trivial context, static screening.
  void build(const la::Matrix& density, la::Matrix& g) {
    build(density, g, FockContext{});
  }

  /// Quartets this builder (this rank, for distributed builders) computed
  /// in the last build. 0 for builders that do not count.
  [[nodiscard]] virtual std::size_t last_quartets_computed() const {
    return 0;
  }
  /// Quartets that passed static Schwarz screening but were killed by the
  /// density-weighted bound in the last build (0 for trivial contexts).
  [[nodiscard]] virtual std::size_t last_density_screened() const {
    return 0;
  }
  /// Quartet candidates this builder visited and killed with the static
  /// Schwarz bound in the last build. Counted at quartet granularity, so
  /// builders that prescreen whole bra pairs (private-Fock) report fewer
  /// visits than ones that enumerate every kl under a surviving pair --
  /// the count is comparable across rank counts of one algorithm, not
  /// across algorithms (DESIGN.md section 10).
  [[nodiscard]] virtual std::size_t last_static_screened() const { return 0; }
  /// MPI-level tasks (bra pairs or bra shells) this rank claimed in the
  /// last build. 0 for builders without an MPI task loop.
  [[nodiscard]] virtual std::size_t last_pairs_claimed() const { return 0; }
  /// Per-OpenMP-thread split of last_quartets_computed() for this rank
  /// (size = thread count; single-threaded builders report one entry).
  /// Empty for builders that do not count.
  [[nodiscard]] virtual std::vector<std::size_t> last_thread_quartets()
      const {
    return {};
  }
  /// Exact static-survivor quartet count of the attached screening -- the
  /// number a trivial-context build must compute (summed over ranks).
  /// O(Nshells^4/8); profiling-time use only. 0 = unknown.
  [[nodiscard]] virtual std::size_t screening_predicted_quartets() const {
    return 0;
  }
  /// Schwarz threshold of the attached Screening (0 = unscreened builder);
  /// the SCF drivers' incremental error estimate scales with it.
  [[nodiscard]] virtual double screening_threshold() const { return 0.0; }
  /// Density-tile reads of the last build served from the rank-local cache
  /// vs fetched one-sidedly from the distributed window. Zero for the
  /// replicated-matrix builders, which have no tile traffic.
  [[nodiscard]] virtual std::size_t last_tile_cache_hits() const { return 0; }
  [[nodiscard]] virtual std::size_t last_tile_cache_misses() const {
    return 0;
  }
};

/// Degeneracy weight of a canonical shell quartet (the size of its orbit
/// under the 8-fold permutational symmetry at shell level).
inline double quartet_degeneracy(std::size_t si, std::size_t sj,
                                 std::size_t sk, std::size_t sl) {
  const double dij = (si == sj) ? 1.0 : 2.0;
  const double dkl = (sk == sl) ? 1.0 : 2.0;
  const double dpair = (si == sk && sj == sl) ? 1.0 : 2.0;
  return dij * dkl * dpair;
}

/// Scatter one computed quartet batch into a single accumulation target
/// (used by the replicated-matrix algorithms; the shared-Fock algorithm
/// splits the six updates across buffers itself).
///
/// batch layout: [a][b][c][d] over the Cartesian components of the shells.
void scatter_quartet(const basis::BasisSet& bs, std::size_t si,
                     std::size_t sj, std::size_t sk, std::size_t sl,
                     const double* batch, const la::Matrix& d, la::Matrix& g);

/// Iterate the canonical quartet list for a fixed (i, j) shell pair:
/// k in [0, i], l in [0, (k == i ? j : k)] -- the "kl <= ij" pair-index
/// enumeration of Algorithm 1. (The paper's line 5 has i/j swapped in the
/// ternary; this is the standard GAMESS enumeration it describes.)
template <typename Fn>
void for_each_kl(std::size_t i, std::size_t j, Fn&& fn) {
  for (std::size_t k = 0; k <= i; ++k) {
    const std::size_t lmax = (k == i) ? j : k;
    for (std::size_t l = 0; l <= lmax; ++l) {
      fn(k, l);
    }
  }
}

/// Number of (k,l) iterations for_each_kl visits.
inline std::size_t kl_count(std::size_t i, std::size_t j) {
  // sum_{k<i} (k+1) + (j+1)
  return i * (i + 1) / 2 + j + 1;
}

}  // namespace mc::scf
