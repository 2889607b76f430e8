#include "ints/boys.hpp"

#include <cmath>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace mc::ints {

namespace {

// Grid-seeded Taylor evaluation (Gill/Head-Gordon style, the scheme GAMESS
// and libint use): F_m(T0 + d) = sum_k F_{m+k}(T0) (-d)^k / k!. With pitch
// 0.05 (|d| <= 0.025) and 7 terms the truncation error is bounded by
// (d^7/7!) * F_{m+7}/F_m <= 1.3e-15 *relative* (F_{m+k} <= F_m), so the
// table path matches the reference series to rounding while replacing its
// data-dependent loop with six fused multiply-adds.
constexpr int kTaylorTerms = 7;
constexpr double kGridStep = 0.05;
constexpr double kInvGridStep = 20.0;  // exactly 1/kGridStep
constexpr int kGridPoints = 1001;      // T0 = 0, 0.05, ..., 50.0
constexpr int kTabOrders = kMaxBoysOrder + kTaylorTerms;  // orders 0..38

// Reference evaluation of F_mmax(T) by the convergent positive-term series
//   F_m(T) = exp(-T) * sum_{k>=0} (2T)^k / ((2m+1)(2m+3)...(2m+2k+1)),
// used only to populate the grid (and exact at T = 0: F_m(0) = 1/(2m+1)).
double boys_series_top(int mmax, double t) {
  const double emt = std::exp(-t);
  double term = 1.0 / (2 * mmax + 1);
  double sum = term;
  for (int k = 1; k < 10000; ++k) {
    term *= 2.0 * t / (2 * mmax + 2 * k + 1);
    sum += term;
    if (term < sum * 1e-16) break;
  }
  return emt * sum;
}

// tab[i * kTabOrders + m] = F_m(i * kGridStep): one row of 39 orders per
// grid point keeps a seed's reads inside one cache line pair. Seeded at the
// top order by the series and filled downward by the stable recursion.
const double* boys_table() {
  static const std::vector<double> tab = [] {
    std::vector<double> t(static_cast<std::size_t>(kGridPoints) * kTabOrders);
    for (int i = 0; i < kGridPoints; ++i) {
      const double t0 = i * kGridStep;
      const double emt = std::exp(-t0);
      double* row = t.data() + static_cast<std::size_t>(i) * kTabOrders;
      row[kTabOrders - 1] = boys_series_top(kTabOrders - 1, t0);
      for (int m = kTabOrders - 1; m > 0; --m) {
        row[m - 1] = (2.0 * t0 * row[m] + emt) / (2 * m - 1);
      }
    }
    return t;
  }();
  return tab.data();
}

// 1/k! for the Taylor terms, folded into Horner coefficients.
constexpr double kInvFact[kTaylorTerms] = {
    1.0, 1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720};

/// Seed F_m(t) for t in [0, kBoysTableTmax). Deterministic fixed-order
/// Horner evaluation -- the value depends only on (m, t), never on the
/// requested mmax or on batch composition.
inline double boys_seed(int m, double t) {
  const int i = static_cast<int>(t * kInvGridStep + 0.5);
  const double d = t - i * kGridStep;
  const double* row = boys_table() + static_cast<std::size_t>(i) * kTabOrders
                      + m;
  double s = row[6] * kInvFact[6];
  s = row[5] * kInvFact[5] - d * s;
  s = row[4] * kInvFact[4] - d * s;
  s = row[3] * kInvFact[3] - d * s;
  s = row[2] * kInvFact[2] - d * s;
  s = row[1] * kInvFact[1] - d * s;
  return row[0] - d * s;
}

/// Large-T path: F_0(T) ~ (1/2) sqrt(pi/T); exp(-T) < 2e-22 is negligible,
/// so the upward recursion F_{m+1} = ((2m+1) F_m - exp(-T)) / (2T) is both
/// accurate and stable. Upward direction means F_m never depends on the
/// requested mmax here either. `stride` separates consecutive orders.
inline void boys_asymptotic(int mmax, double t, double* out,
                            std::size_t stride) {
  const double emt = std::exp(-t);
  out[0] = 0.5 * std::sqrt(kPi / t);
  for (int m = 0; m < mmax; ++m) {
    out[(static_cast<std::size_t>(m) + 1) * stride] =
        ((2 * m + 1) * out[static_cast<std::size_t>(m) * stride] - emt) /
        (2.0 * t);
  }
}

}  // namespace

void boys(int mmax, double t, double* out) {
  MC_CHECK(mmax >= 0 && mmax <= kMaxBoysOrder, "boys order out of range");
  MC_CHECK(t >= 0.0, "boys argument must be non-negative");

  if (t >= kBoysTableTmax) {
    boys_asymptotic(mmax, t, out, 1);
    return;
  }
  // F_0 alone needs no downward recursion, hence no exp(-T); this is the
  // (ssss) hot case. Value unchanged: boys_seed is the mmax-independent
  // table evaluation all orders use.
  if (mmax == 0) {
    out[0] = boys_seed(0, t);
    return;
  }
  const double emt = std::exp(-t);
  out[mmax] = boys_seed(mmax, t);
  for (int m = mmax; m > 0; --m) {
    out[m - 1] = (2.0 * t * out[m] + emt) / (2 * m - 1);
  }
}

void boys_batch(int mmax, std::size_t n, const double* t, double* fm) {
  MC_CHECK(mmax >= 0 && mmax <= kMaxBoysOrder, "boys order out of range");

  // Order-0 batches ((ssss) classes) skip the recursion entirely, so no
  // exp(-T) is needed; matches boys() element for element.
  if (mmax == 0) {
    for (std::size_t e = 0; e < n; ++e) {
      MC_CHECK(t[e] >= 0.0, "boys argument must be non-negative");
      fm[e] = (t[e] >= kBoysTableTmax) ? 0.5 * std::sqrt(kPi / t[e])
                                       : boys_seed(0, t[e]);
    }
    return;
  }

  // Pass 1: per-element top-order seed and exp(-T). Asymptotic elements
  // are seeded 0 with a zero exp(-T), so the recursion below carries
  // exact zeros through their columns, and their indices are kept.
  thread_local std::vector<double> emt_buf;
  thread_local std::vector<std::size_t> asym;
  if (emt_buf.size() < n) emt_buf.resize(n);
  double* emt = emt_buf.data();
  asym.clear();
  for (std::size_t e = 0; e < n; ++e) {
    MC_CHECK(t[e] >= 0.0, "boys argument must be non-negative");
    if (t[e] >= kBoysTableTmax) {
      fm[static_cast<std::size_t>(mmax) * n + e] = 0.0;
      emt[e] = 0.0;
      asym.push_back(e);
    } else {
      fm[static_cast<std::size_t>(mmax) * n + e] = boys_seed(mmax, t[e]);
      emt[e] = std::exp(-t[e]);
    }
  }

  // Pass 2: downward recursion over the whole batch, arithmetic identical
  // to boys(): branch-free, unit-stride over the batch -- the SIMD axis.
  for (int m = mmax; m > 0; --m) {
    double* lo = fm + static_cast<std::size_t>(m - 1) * n;
    const double* hi = fm + static_cast<std::size_t>(m) * n;
#pragma omp simd
    for (std::size_t e = 0; e < n; ++e) {
      lo[e] = (2.0 * t[e] * hi[e] + emt[e]) / (2 * m - 1);
    }
  }

  // Pass 3: the asymptotic columns, overwritten by boys()'s upward path.
  for (const std::size_t e : asym) boys_asymptotic(mmax, t[e], fm + e, n);
}

double boys_single(int m, double t) {
  double buf[kMaxBoysOrder + 1];
  boys(m, t, buf);
  return buf[m];
}

}  // namespace mc::ints
