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
// Everything the screened builders share lives in this header, so each
// builder is only a distribution plus an accumulation target (DESIGN.md
// section 9.4):
//   * QuartetCascade -- which quartets survive: the static Schwarz bound,
//     then the density-weighted bound, at pair and quartet level, then --
//     when the density is invariant under the basis's point group -- one
//     representative per symmetry orbit (DESIGN.md section 9.6);
//   * scatter_updates -- the six updates of paper eqs. 2a-2f, one
//     arithmetic in one order, written through a builder-supplied route;
//   * QuartetCascade::project -- turns the orbit-weighted skeleton of a
//     symmetry-unique build into the full one (a no-op in C1), so build()
//     keeps the contract above;
//   * BuildStats -- what a build counts, reported by last_stats() and the
//     base's getters.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "basis/basis_set.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"
#include "obs/metrics.hpp"

namespace mc::ints {
class QuartetBatch;
}

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

/// The counters of one build on one rank: the profile schema's per-rank
/// record (obs::BuildStats), which each builder fills and
/// FockBuilder::last_stats reports.
using obs::BuildStats;

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

/// Largest density asymmetry (PointGroup::asymmetry) a build tolerates
/// and still runs symmetry-unique, in units of the Schwarz threshold:
/// with the default 1e-10 threshold, densities invariant to 1e-12 use the
/// group. An asymmetry that small moves no quartet's contribution by more
/// than the screening already neglects (DESIGN.md section 9.6).
inline constexpr double kSymmetryTolerance = 1e-2;

/// Which quartets a build computes (DESIGN.md sections 9.1 and 9.6): the
/// static Schwarz bound, then -- for a weighted context -- the
/// density-weighted bound, at bra-pair level and at quartet level, then --
/// for a symmetry-unique build -- one representative per orbit of the
/// point group, computed with its orbit size as a weight. Built once per
/// build(); every screened builder asks it, so the computed set and the
/// counters do not depend on the algorithm.
class QuartetCascade {
 public:
  /// A C1 cascade, or with `symmetric` a symmetry-unique one over the
  /// Screening's point group (C1 still if that group is trivial).
  /// Throws mc::Error if a weighted `ctx` was made for another basis
  /// (its block norms would be indexed with this basis's shells).
  QuartetCascade(const ints::Screening& screen, const FockContext& ctx,
                 bool symmetric = false);

  /// The cascade a build of `density` runs: symmetry-unique under the
  /// Screening's point group if the density is invariant under it within
  /// kSymmetryTolerance times the Schwarz threshold, C1 otherwise. Every
  /// rank of a distributed build passes the same density, so every rank
  /// takes the same decision.
  static QuartetCascade for_density(const ints::Screening& screen,
                                    const la::Matrix& density,
                                    const FockContext& ctx);

  /// |G| of the group in use (1 = C1).
  [[nodiscard]] int group_order() const {
    return group_ != nullptr ? group_->order() : 1;
  }

  /// Can bra pair (i, j) carry a computed quartet? Static q_ij * qmax
  /// bound, then the density pair bound q_ij * qmax * 4*dmax_max, which
  /// dominates every quartet bound below it, then -- symmetry-unique --
  /// the pair must be the largest of its orbit.
  [[nodiscard]] bool keep_pair(std::size_t i, std::size_t j) const {
    return pair_bounds(i, j) &&
           (group_ == nullptr || group_->unique_pair(i, j));
  }
  /// keep_pair, counting the quartets of a pair that passes the bounds but
  /// is dropped for symmetry into `stats` as a C1 build classifies them.
  bool keep_pair(std::size_t i, std::size_t j, BuildStats& stats) const {
    if (!pair_bounds(i, j)) return false;
    if (group_ == nullptr || group_->unique_pair(i, j)) return true;
    for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
      count_dropped(i, j, k, l, stats);
    });
    return false;
  }

  /// Does quartet (i,j|k,l) of a kept bra pair survive? Returns the weight
  /// to compute it with -- 1 in C1, its orbit size for an orbit's
  /// representative -- or 0 when it is dropped. Counts the outcome into
  /// `stats`: a static kill, a density kill, a symmetry skip, or a
  /// computed quartet.
  unsigned keep(std::size_t i, std::size_t j, std::size_t k, std::size_t l,
                BuildStats& stats) const {
    if (!screen_->keep(i, j, k, l)) {
      ++stats.static_screened;
      return 0;
    }
    if (weighted_ && !screen_->keep(i, j, k, l,
                                    ctx_->quartet_dmax(i, j, k, l), scale_)) {
      ++stats.density_screened;
      return 0;
    }
    unsigned orbit = 1;
    if (group_ != nullptr) {
      orbit = group_->representative_orbit(i, j, k, l);
      if (orbit == 0) {
        ++stats.symmetry_skipped;
        return 0;
      }
    }
    ++stats.quartets;
    return orbit;
  }

  /// fn(k, l, weight) for every kept quartet of bra pair (i, j), in
  /// for_each_kl order; a pair keep_pair drops runs no fn.
  template <typename Fn>
  void for_each_kept(std::size_t i, std::size_t j, BuildStats& stats,
                     Fn&& fn) const {
    if (!keep_pair(i, j, stats)) return;
    for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
      if (const unsigned w = keep(i, j, k, l, stats)) fn(k, l, w);
    });
  }

  /// for_each_kept restricted to ket shell k, l in [0, k == i ? j : k]:
  /// fn(l, weight). The private-Fock builder's (j, k) task.
  template <typename Fn>
  void for_each_kept_in_row(std::size_t i, std::size_t j, std::size_t k,
                            BuildStats& stats, Fn&& fn) const {
    if (!pair_bounds(i, j)) return;
    const bool unique = group_ == nullptr || group_->unique_pair(i, j);
    const std::size_t lmax = (k == i) ? j : k;
    for (std::size_t l = 0; l <= lmax; ++l) {
      if (!unique) {
        count_dropped(i, j, k, l, stats);
      } else if (const unsigned w = keep(i, j, k, l, stats)) {
        fn(l, w);
      }
    }
  }

  /// Turn the skeleton a symmetry-unique build accumulated into the full
  /// one (PointGroup::project); a no-op in C1. Call once on the reduced,
  /// replicated G.
  void project(la::Matrix& g) const {
    if (group_ != nullptr) group_->project(g);
  }

  /// Quartets a build with this cascade computes over the Screening's
  /// pair list (summed over ranks). O(Nshells^4/8).
  [[nodiscard]] std::size_t count_kept() const;

 private:
  [[nodiscard]] bool pair_bounds(std::size_t i, std::size_t j) const {
    return screen_->keep_pair(i, j) &&
           (!weighted_ || screen_->keep_pair(i, j, pair_dmax_, scale_));
  }
  /// Count one quartet of a pair dropped for symmetry as C1 would.
  void count_dropped(std::size_t i, std::size_t j, std::size_t k,
                     std::size_t l, BuildStats& stats) const {
    if (!screen_->keep(i, j, k, l)) {
      ++stats.static_screened;
    } else if (weighted_ &&
               !screen_->keep(i, j, k, l, ctx_->quartet_dmax(i, j, k, l),
                              scale_)) {
      ++stats.density_screened;
    } else {
      ++stats.symmetry_skipped;
    }
  }

  const ints::Screening* screen_;
  const FockContext* ctx_;
  const ints::PointGroup* group_;  ///< null in C1
  bool weighted_;
  double pair_dmax_;  ///< 4 * ctx.dmax_max
  double scale_;
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

  /// Counters of the last build on this rank: the record run_rhf puts on
  /// the profile line. Builders without a Screening count nothing and
  /// report zeros. The getters below read single fields of it; the three
  /// virtual ones are what run_rhf reads outside profiling, so that a
  /// decorating builder can forward them.
  [[nodiscard]] const BuildStats& last_stats() const { return stats_; }

  /// Quartets computed.
  [[nodiscard]] virtual std::size_t last_quartets_computed() const {
    return stats_.quartets;
  }
  /// Quartets that passed static Schwarz screening but were killed by the
  /// density-weighted bound (0 for trivial contexts). C1 quartets in a
  /// symmetry-unique build too, so run_rhf's error estimate is the C1
  /// one.
  [[nodiscard]] virtual std::size_t last_density_screened() const {
    return stats_.density_screened;
  }
  /// MPI-level tasks (bra pairs or bra shells) this rank claimed. 0 for
  /// builders without an MPI task loop.
  [[nodiscard]] std::size_t last_pairs_claimed() const {
    return stats_.pairs_claimed;
  }
  /// Per-OpenMP-thread split of last_quartets_computed() for this rank
  /// (size = thread count; single-threaded builders report one entry).
  /// Empty for builders that do not count.
  [[nodiscard]] std::vector<std::size_t> last_thread_quartets() const {
    return stats_.thread_quartets;
  }
  /// Quartets a trivial-context build of a density invariant under the
  /// basis's point group computes (summed over ranks): the static
  /// survivors, one per symmetry orbit. O(Nshells^4/8); profiling-time use
  /// only. 0 = unknown.
  [[nodiscard]] std::size_t screening_predicted_quartets() const {
    if (screen_ == nullptr) return 0;
    const FockContext trivial;
    return QuartetCascade(*screen_, trivial, /*symmetric=*/true)
        .count_kept();
  }
  /// Schwarz threshold of the attached Screening (0 = unscreened builder);
  /// the SCF drivers' incremental error estimate scales with it.
  [[nodiscard]] virtual double screening_threshold() const {
    return screen_ != nullptr ? screen_->threshold() : 0.0;
  }
  /// Density-tile reads served from the rank-local cache vs fetched
  /// one-sidedly from the distributed window. Zero for the
  /// replicated-matrix builders, which have no tile traffic.
  [[nodiscard]] std::size_t last_tile_cache_hits() const {
    return stats_.tile_hits;
  }
  [[nodiscard]] std::size_t last_tile_cache_misses() const {
    return stats_.tile_misses;
  }

 protected:
  FockBuilder() = default;
  explicit FockBuilder(const ints::Screening& screen) : screen_(&screen) {}

  /// Zeroes stats_ and returns this build's cascade
  /// (QuartetCascade::for_density). Call first in build(), before any
  /// collective: a context from another basis throws on every rank alike.
  [[nodiscard]] QuartetCascade begin_build(const la::Matrix& density,
                                           const FockContext& ctx);

  const ints::Screening* screen_ = nullptr;
  BuildStats stats_;
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

/// The six updates of one computed quartet, paper eqs. 2a-2f: with
/// X = w*v/2 (w the degeneracy times the quartet's cascade weight -- 1 in
/// C1, its symmetry orbit size in a symmetry-unique build; both powers of
/// two, so the product is exact), F_ij += X D_kl and F_kl += X D_ij
/// (Coulomb), F_ik, F_jl, F_il, F_jk -= X/4 D_jl, D_ik, D_jk, D_il
/// (exchange). `vals` is the [a][b][c][d] batch over the shells' Cartesian
/// components. Every builder writes them here, in this order, so builders
/// differ only in the `route` -- where each update lands:
///   route.f_i(a, fa), route.f_j(b, fb), route.f_k(c, fc): the F rows of
///     component a (function fa) of shell i, etc. -- anything with
///     add(col, v);
///   route.d(r): the density row r as a const double*.
/// The exchange terms are added negated; negation is exact, so this is
/// bitwise the same as subtracting.
template <typename Route>
void scatter_updates(const basis::BasisSet& bs, std::size_t si,
                     std::size_t sj, std::size_t sk, std::size_t sl,
                     unsigned weight, const double* vals,
                     const Route& route) {
  const basis::Shell& shi = bs.shell(si);
  const basis::Shell& shj = bs.shell(sj);
  const basis::Shell& shk = bs.shell(sk);
  const basis::Shell& shl = bs.shell(sl);
  const int ni = shi.nfunc(), nj = shj.nfunc(), nk = shk.nfunc(),
            nl = shl.nfunc();
  const double w =
      quartet_degeneracy(si, sj, sk, sl) * static_cast<double>(weight);

  std::size_t idx = 0;
  for (int a = 0; a < ni; ++a) {
    const std::size_t fa = shi.first_bf + static_cast<std::size_t>(a);
    const auto f_a = route.f_i(a, fa);
    const double* d_a = route.d(fa);
    for (int b = 0; b < nj; ++b) {
      const std::size_t fb = shj.first_bf + static_cast<std::size_t>(b);
      const auto f_b = route.f_j(b, fb);
      const double* d_b = route.d(fb);
      for (int c = 0; c < nk; ++c) {
        const std::size_t fc = shk.first_bf + static_cast<std::size_t>(c);
        const auto f_c = route.f_k(c, fc);
        const double* d_c = route.d(fc);
        for (int dd = 0; dd < nl; ++dd, ++idx) {
          const std::size_t fd = shl.first_bf + static_cast<std::size_t>(dd);
          const double v = vals[idx];
          if (v == 0.0) continue;
          const double x = 0.5 * w * v;
          const double x4 = 0.25 * x;
          f_a.add(fb, x * d_c[fd]);       // F_ij
          f_c.add(fd, x * d_a[fb]);       // F_kl
          f_a.add(fc, -(x4 * d_b[fd]));   // F_ik
          f_b.add(fd, -(x4 * d_a[fc]));   // F_jl
          f_a.add(fd, -(x4 * d_b[fc]));   // F_il
          f_b.add(fc, -(x4 * d_a[fd]));   // F_jk
        }
      }
    }
  }
}

/// scatter_updates of one quartet into a single replicated matrix g.
void scatter_quartet(const basis::BasisSet& bs, std::size_t si,
                     std::size_t sj, std::size_t sk, std::size_t sl,
                     unsigned weight, const double* vals,
                     const la::Matrix& d, la::Matrix& g);

/// Evaluate `batch`, scatter every entry (with its weight) into g in
/// discovery order (so G matches the per-quartet scalar path bitwise),
/// then clear it.
void scatter_batch(const basis::BasisSet& bs, ints::QuartetBatch& batch,
                   const la::Matrix& d, la::Matrix& g);

}  // namespace mc::scf
