#pragma once
// McMurchie-Davidson Hermite machinery:
//  * E coefficients expanding a 1-D Cartesian Gaussian product in Hermite
//    Gaussians,
//  * the Hermite Coulomb tensor R_{tuv}.
// Reference: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978); see also
// Helgaker/Jorgensen/Olsen "Molecular Electronic-Structure Theory" ch. 9.

#include <cstddef>
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
  /// Builds the full table. The Gaussian product prefactor
  /// exp(-a b/(a+b) AB^2) is folded into every coefficient.
  ETable(int imax, int jmax, double a, double b, double ab);

  [[nodiscard]] double operator()(int i, int j, int t) const {
    if (t < 0 || t > i + j) return 0.0;
    return data_[static_cast<std::size_t>((i * (jmax_ + 1) + j) * tdim_ + t)];
  }

 private:
  int jmax_ = 0;
  int tdim_ = 0;  // imax + jmax + 1
  std::vector<double> data_;
};

/// Downward auxiliary-index recursion for the Hermite Coulomb tensor,
/// shared by RTable (runtime order, member buffers) and FixedRTable
/// (compile-time order LTOT, stack buffers). `seeds[n]` must hold
/// (-2 alpha)^n F_n, n = 0..ltot. Level n of the recursion lives in `even`
/// (n even) or `odd` (n odd), both (ltot+1)^3 cubes: level n reads only
/// level n+1 (the other buffer), and by the time it overwrites level n+2's
/// cells they are dead. Level 0 -- the result -- therefore lands in `even`
/// with no final copy.
///
/// Recursions (Helgaker et al. eq. 9.9.18-20):
///   R_{t+1,u,v}^{(n)} = t R_{t-1,u,v}^{(n+1)} + X_PQ R_{t,u,v}^{(n+1)}
/// and cyclic for u, v. Only the t+u+v <= ltot - n triangle of each level
/// is written, and only the t+u+v <= ltot - n - 1 triangle of the level
/// above is read; cells outside the level-0 triangle are left untouched.
/// With LTOT >= 0 the loop bounds are constants (the runtime argument is
/// ignored), so the ERI kernel's constant-class instantiations unroll it;
/// the cell order and arithmetic are the same either way.
template <int LTOT = -1>
inline void hermite_r_recursion(int ltot_rt, const double* pq,
                                const double* seeds, double* even,
                                double* odd) {
  const int ltot = LTOT >= 0 ? LTOT : ltot_rt;
  const int d = ltot + 1;
  auto idx = [d](int t, int u, int v) {
    return static_cast<std::size_t>((t * d + u) * d + v);
  };
  for (int n = ltot; n >= 0; --n) {
    double* lo = (n % 2 == 0) ? even : odd;
    lo[idx(0, 0, 0)] = seeds[n];
    if (n == ltot) continue;
    const double* hi = (n % 2 == 0) ? odd : even;
    const int lmax = ltot - n;
    for (int t = 0; t <= lmax; ++t) {
      for (int u = 0; u + t <= lmax; ++u) {
        for (int v = 0; v + u + t <= lmax; ++v) {
          if (t + u + v == 0) continue;
          double val;
          if (t > 0) {
            val = pq[0] * hi[idx(t - 1, u, v)];
            if (t > 1) val += (t - 1) * hi[idx(t - 2, u, v)];
          } else if (u > 0) {
            val = pq[1] * hi[idx(t, u - 1, v)];
            if (u > 1) val += (u - 1) * hi[idx(t, u - 2, v)];
          } else {
            val = pq[2] * hi[idx(t, u, v - 1)];
            if (v > 1) val += (v - 1) * hi[idx(t, u, v - 2)];
          }
          lo[idx(t, u, v)] = val;
        }
      }
    }
  }
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
/// build() and build_from() reuse internal storage, so a long-lived (e.g.
/// thread_local) instance performs no allocations in the hot
/// primitive-quartet loop.
class RTable {
 public:
  RTable() = default;
  /// Convenience constructor; prefer a reused instance + build() in loops.
  RTable(int ltot, double alpha, const double* pq) { build(ltot, alpha, pq); }

  /// alpha: reduced exponent of the Coulomb kernel; pq = P - Q vector.
  /// Evaluates the Boys function internally and zero-fills the cube, so
  /// reads outside the t+u+v <= ltot triangle return exactly 0.0.
  void build(int ltot, double alpha, const double* pq);

  /// Hot-path variant for callers that batch the Boys evaluation: seeds the
  /// recursion from fm[m * fm_stride] = F_m(alpha |PQ|^2), m = 0..ltot, and
  /// fills ONLY the t+u+v <= ltot triangle (no cube zeroing, no copy) --
  /// entries outside the triangle are stale. The ERI kernel's loops are
  /// triangle-bounded, which is what makes this safe; arithmetic is
  /// identical to build(), so in-triangle values match it bitwise.
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
/// constant cube dimension. Same recursion and arithmetic as
/// RTable::build_from, so in-triangle values match it bitwise; cells
/// outside the t+u+v <= LTOT triangle are never written.
template <int LTOT>
class FixedRTable {
 public:
  static constexpr int kDim = LTOT + 1;

  void build_from(double alpha, const double* pq, const double* fm,
                  std::size_t fm_stride) {
    double seeds[LTOT + 1];
    hermite_r_seeds(LTOT, alpha, fm, fm_stride, seeds);
    hermite_r_recursion<LTOT>(LTOT, pq, seeds, even_, odd_);
  }
  [[nodiscard]] const double* data() const { return even_; }

 private:
  static constexpr std::size_t kCube =
      static_cast<std::size_t>(kDim) * kDim * kDim;
  double even_[kCube];
  double odd_[kCube];
};

}  // namespace mc::ints
