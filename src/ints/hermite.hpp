#pragma once
// McMurchie-Davidson Hermite machinery:
//  * E coefficients expanding a 1-D Cartesian Gaussian product in Hermite
//    Gaussians,
//  * the Hermite Coulomb tensor R_{tuv}.
// Reference: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978); see also
// Helgaker/Jorgensen/Olsen "Molecular Electronic-Structure Theory" ch. 9.

#include <array>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "ints/boys.hpp"

namespace mc::ints {

/// Table of 1-D Hermite expansion coefficients E_t^{ij} for one primitive
/// pair in one dimension: exponents (a, b), separation AB = A_x - B_x.
/// Valid for 0 <= i <= imax, 0 <= j <= jmax, 0 <= t <= i + j.
class ETable {
 public:
  ETable() = default;
  ETable(int imax, int jmax, double a, double b, double ab) {
    build(imax, jmax, a, b, ab);
  }

  /// Builds the full table in place. The Gaussian product prefactor
  /// exp(-a b/(a+b) AB^2) is folded into every coefficient. The storage
  /// only grows, so a table rebuilt for every primitive pair of a loop
  /// allocates only when the loop first meets a larger (imax, jmax).
  void build(int imax, int jmax, double a, double b, double ab);

  [[nodiscard]] double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return data_[static_cast<std::size_t>((i * (jmax_ + 1) + j) * tdim_ + t)];
  }

 private:
  int jmax_ = 0;
  int tdim_ = 0;  // imax + jmax + 1
  std::vector<double> data_;
};

/// One step of the downward auxiliary-index recursion for the Hermite
/// Coulomb tensor. A seed step (axis < 0) writes R_{000}^{(level)} =
/// seeds[level] into cell 0 of its level's buffer. Every other step writes
/// one cell of level `level` (lo) from level `level + 1` (hi):
///   lo[dst] = pq[axis] * hi[src1];  lo[dst] += coef * hi[src2] if coef > 0.
/// Cells are linear offsets into an (ltot+1)^3 cube.
struct HermiteRStep {
  int level = 0;
  int axis = -1;  ///< 0, 1, 2 = x, y, z; -1 = seed step
  int coef = 0;   ///< t - 1 (or u - 1, v - 1)
  int dst = 0;
  int src1 = 0;
  int src2 = 0;
};

/// The recursion's steps in execution order, passed one by one to `step`.
/// This one enumeration drives both forms: hermite_r_recursion executes it
/// as loops at run time, and FixedRTable records it at compile time and
/// executes it straight-line, so the two write the same cells in the same
/// order with the same products.
///
/// Level n of the recursion lives in `even` (n even) or `odd` (n odd),
/// both (ltot+1)^3 cubes: level n reads only level n+1 (the other buffer),
/// and by the time it overwrites level n+2's cells they are dead. Level 0
/// -- the result -- therefore lands in `even` with no final copy.
///
/// Recursions (Helgaker et al. eq. 9.9.18-20):
///   R_{t+1,u,v}^{(n)} = t R_{t-1,u,v}^{(n+1)} + X_PQ R_{t,u,v}^{(n+1)}
/// and cyclic for u, v. Only the t+u+v <= ltot - n triangle of each level
/// is written, and only the t+u+v <= ltot - n - 1 triangle of the level
/// above is read; cells outside the level-0 triangle are left untouched.
template <typename StepFn>
constexpr void hermite_r_steps(int ltot, StepFn&& step) {
  const int d = ltot + 1;
  auto idx = [d](int t, int u, int v) { return (t * d + u) * d + v; };
  for (int n = ltot; n >= 0; --n) {
    step(HermiteRStep{n, -1, 0, 0, 0, 0});
    if (n == ltot) continue;
    const int lmax = ltot - n;
    for (int t = 0; t <= lmax; ++t) {
      for (int u = 0; u + t <= lmax; ++u) {
        for (int v = 0; v + u + t <= lmax; ++v) {
          if (t + u + v == 0) continue;
          if (t > 0) {
            step(HermiteRStep{n, 0, t - 1, idx(t, u, v), idx(t - 1, u, v),
                              t > 1 ? idx(t - 2, u, v) : 0});
          } else if (u > 0) {
            step(HermiteRStep{n, 1, u - 1, idx(t, u, v), idx(t, u - 1, v),
                              u > 1 ? idx(t, u - 2, v) : 0});
          } else {
            step(HermiteRStep{n, 2, v - 1, idx(t, u, v), idx(t, u, v - 1),
                              v > 1 ? idx(t, u, v - 2) : 0});
          }
        }
      }
    }
  }
}

/// Loop form of the recursion, for an order known only at run time (RTable:
/// f shells and up in the ERI kernel and in one-electron V, the reference
/// ERI kernel). `seeds[n]` must hold (-2 alpha)^n F_n, n = 0..ltot. Each
/// level opens with its seed step, which is where the level's buffers are
/// picked.
inline void hermite_r_recursion(int ltot, const double* pq,
                                const double* seeds, double* even,
                                double* odd) {
  double* lo = even;
  const double* hi = odd;
  hermite_r_steps(ltot, [&](const HermiteRStep& s) {
    if (s.axis < 0) {
      lo = (s.level % 2 == 0) ? even : odd;
      hi = (s.level % 2 == 0) ? odd : even;
      lo[0] = seeds[s.level];
      return;
    }
    double val = pq[s.axis] * hi[s.src1];
    if (s.coef > 0) val += s.coef * hi[s.src2];
    lo[s.dst] = val;
  });
}

/// The order-LTOT step list, recorded at compile time.
template <int LTOT>
inline constexpr auto kHermiteRSteps = [] {
  constexpr int kCount = [] {
    int n = 0;
    hermite_r_steps(LTOT, [&n](const HermiteRStep&) { ++n; });
    return n;
  }();
  std::array<HermiteRStep, static_cast<std::size_t>(kCount)> steps{};
  std::size_t i = 0;
  hermite_r_steps(LTOT, [&](const HermiteRStep& s) { steps[i++] = s; });
  return steps;
}();

/// One recorded step with every field an immediate.
template <HermiteRStep S>
inline void hermite_r_step(const double* pq, const double* seeds,
                           double* even, double* odd) {
  double* lo = (S.level % 2 == 0) ? even : odd;
  if constexpr (S.axis < 0) {
    lo[0] = seeds[S.level];
  } else {
    const double* hi = (S.level % 2 == 0) ? odd : even;
    double val = pq[S.axis] * hi[S.src1];
    if constexpr (S.coef > 0) val += S.coef * hi[S.src2];
    lo[S.dst] = val;
  }
}

/// Straight-line form: the order-LTOT step list as a fold over an index
/// sequence (no recursion-depth limit), so no cell index, bound or branch
/// is evaluated at run time.
template <int LTOT, std::size_t... I>
inline void hermite_r_unrolled(const double* pq, const double* seeds,
                               double* even, double* odd,
                               std::index_sequence<I...> /*steps*/) {
  (hermite_r_step<kHermiteRSteps<LTOT>[I]>(pq, seeds, even, odd), ...);
}

/// Recursion seeds R_{000}^{(n)} = (-2 alpha)^n F_n for n = 0..ltot, from
/// fm[n * fm_stride] = F_n(alpha |PQ|^2).
inline void hermite_r_seeds(int ltot, double alpha, const double* fm,
                            std::size_t fm_stride, double* seeds) {
  double pref = 1.0;
  for (int n = 0; n <= ltot; ++n) {
    seeds[n] = pref * fm[static_cast<std::size_t>(n) * fm_stride];
    pref *= -2.0 * alpha;
  }
}

/// Hermite Coulomb tensor R_{tuv} = R_{tuv}^{(0)}(alpha, PQ) for
/// 0 <= t+u+v <= ltot. Built from the Boys function by the standard
/// auxiliary-index recursion.
///
/// build_from() reuses internal storage, so a long-lived (e.g.
/// thread_local) instance performs no allocations in the hot
/// primitive-quartet loop.
class RTable {
 public:
  /// Seeds the recursion from fm[m * fm_stride] = F_m(alpha |PQ|^2),
  /// m = 0..ltot (alpha: reduced exponent of the Coulomb kernel; pq = P - Q
  /// vector), and fills ONLY the t+u+v <= ltot triangle (no cube zeroing,
  /// no copy) -- entries outside the triangle are stale. Every consumer's
  /// loops are triangle-bounded, which is what makes this safe.
  void build_from(int ltot, double alpha, const double* pq, const double* fm,
                  std::size_t fm_stride);

  [[nodiscard]] double operator()(int t, int u, int v) const {
    return data_[static_cast<std::size_t>((t * dim_ + u) * dim_ + v)];
  }
  [[nodiscard]] const double* data() const { return data_.data(); }
  [[nodiscard]] int dim() const { return dim_; }

 private:
  /// Sizes both level buffers for order ltot (grow-only).
  void reserve(int ltot);

  int dim_ = 0;  // ltot + 1
  std::vector<double> data_;     // even recursion levels, level 0 = result
  std::vector<double> scratch_;  // odd recursion levels
};

inline void RTable::reserve(int ltot) {
  MC_CHECK(ltot <= kMaxBoysOrder, "RTable order exceeds Boys table");
  dim_ = ltot + 1;
  const std::size_t sz = static_cast<std::size_t>(dim_) * dim_ * dim_;
  if (data_.size() < sz) data_.resize(sz);
  if (scratch_.size() < sz) scratch_.resize(sz);
}

inline void RTable::build_from(int ltot, double alpha, const double* pq,
                               const double* fm, std::size_t fm_stride) {
  reserve(ltot);
  double seeds[kMaxBoysOrder + 1];
  hermite_r_seeds(ltot, alpha, fm, fm_stride, seeds);
  hermite_r_recursion(ltot, pq, seeds, data_.data(), scratch_.data());
}

/// RTable for a compile-time order: both recursion levels in fixed-size
/// member arrays (stack storage when the table is a local), no size checks,
/// constant cube dimension, and the recursion run straight-line from the
/// compile-time step list. Same steps as RTable::build_from, so
/// in-triangle values match it bitwise; cells outside the t+u+v <= LTOT
/// triangle are never written.
template <int LTOT>
class FixedRTable {
 public:
  static constexpr int kDim = LTOT + 1;

  void build_from(double alpha, const double* pq, const double* fm,
                  std::size_t fm_stride) {
    double seeds[LTOT + 1];
    hermite_r_seeds(LTOT, alpha, fm, fm_stride, seeds);
    hermite_r_unrolled<LTOT>(
        pq, seeds, even_, odd_,
        std::make_index_sequence<kHermiteRSteps<LTOT>.size()>{});
  }
  [[nodiscard]] const double* data() const { return even_; }

 private:
  static constexpr std::size_t kCube =
      static_cast<std::size_t>(kDim) * kDim * kDim;
  double even_[kCube];
  double odd_[kCube];
};

}  // namespace mc::ints
