#pragma once
// Internal McMurchie-Davidson quartet kernel shared by the scalar ERI path
// (eri.cpp) and the batched pipeline (eri_batch.cpp). Both paths execute
// the *same* per-quartet instruction sequence -- primitive-pair geometry,
// prescreen, Hermite Coulomb recursion, ket accumulation, bra contraction
// -- and differ only in where the Boys values come from (computed inline
// vs consumed from a boys_batch block). That shared structure is what
// makes the scalar-vs-batched agreement bitwise (tested at a 1-ULP bound
// in test_ints.cpp) instead of approximate. Both paths also orient each
// caller quartet by the same rule (orient_quartet, eri.hpp) before the
// kernel runs, so one caller quartet means one kernel call on either path.
//
// Kernel form (DESIGN.md section 12.7): the Hermite contractions run over
// *compact triangles*. For each angular class, precomputed side tables
// (class_tab) enumerate one side's Hermite triangle {(t,u,v): t+u+v <= L}
// in lexicographic order and record each entry's linear offset into the
// combined R cube. Because the cube index is linear,
//   offset(t+tau, u+nu, v+phi) = offset_bra(t,u,v) + offset_ket(tau,nu,phi),
// so the Hermite Coulomb tensor of one primitive quartet gathers into a
// dense [ket-tri][bra-tri] matrix in one pass, and both the ket
// accumulation (G += w * R-row) and the bra contraction (out += Hb . G)
// become unit-stride inner loops over the bra triangle -- the SIMD axis
// within one primitive quartet, complementing the Boys batch axis across
// quartets. Iteration orders match the pre-restructure kernel exactly
// (tau,nu,phi and t,u,v ascending), so results are bitwise unchanged;
// eri_quartet_kernel_ref below preserves the original nested-loop form
// and test_ints pins new == ref at 0 ULP.
//
// Not part of the public ints API; include from src/ints only.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/constants.hpp"
#include "common/error.hpp"
#include "ints/boys.hpp"
#include "ints/hermite.hpp"
#include "ints/shell_pair.hpp"

namespace mc::ints::detail {

// MD Coulomb kernel normalization 2*pi^2.5, hoisted out of the primitive
// pair loops (it used to be recomputed via std::pow per ket primitive).
inline const double kTwoPiToFiveHalves = 2.0 * std::pow(kPi, 2.5);

// Primitive-level prescreen: a primitive pair's contribution to any batch
// element is bounded (up to the Boys/Hermite recursion factors) by
// pref * max|H_bra| * max|H_ket|. The recursion can amplify by a few
// orders for high L, so the cutoff sits ~9 orders below the loosest
// Schwarz threshold in use (1e-10); dropped terms are far beneath both
// the screening error budget and double rounding of accumulated batches.
inline constexpr double kPrimPairCutoff = 1e-19;

/// Per-primitive-quartet geometry: the MD Coulomb prefactor, the reduced
/// exponent, the P - Q vector, and the Boys argument T = alpha |PQ|^2.
/// Deterministic in (bp, kp) alone, so phase 1 (Boys-argument collection)
/// and phase 3 (consumption) of the batched pipeline recompute identical
/// values.
struct PrimGeom {
  double pref = 0.0;
  double alpha = 0.0;
  double t = 0.0;
  double pq[3] = {0.0, 0.0, 0.0};
};

inline PrimGeom prim_geom(const PrimPairData& bp, const PrimPairData& kp) {
  PrimGeom g;
  const double p = bp.p;
  const double q = kp.p;
  // Contraction coefficients live in the Hermite tables; the remaining
  // prefactor is the MD Coulomb kernel normalization.
  g.pref = kTwoPiToFiveHalves / (p * q * std::sqrt(p + q));
  g.alpha = p * q / (p + q);
  g.pq[0] = bp.P[0] - kp.P[0];
  g.pq[1] = bp.P[1] - kp.P[1];
  g.pq[2] = bp.P[2] - kp.P[2];
  const double r2 =
      g.pq[0] * g.pq[0] + g.pq[1] * g.pq[1] + g.pq[2] * g.pq[2];
  g.t = g.alpha * r2;
  return g;
}

/// Primitive-pair prescreen on the combined Hermite weight.
inline bool prim_skipped(const PrimPairData& bp, const PrimPairData& kp,
                         double pref) {
  return pref * bp.hmax * kp.hmax < kPrimPairCutoff;
}

/// View into a block of Boys values for one primitive quartet:
/// fm[m * stride] = F_m(T), m = 0..ltot.
struct FmView {
  const double* fm = nullptr;
  std::size_t stride = 1;
};

/// Boys source for the scalar path: evaluates inline per primitive quartet.
/// (Functor interface retained for eri_quartet_kernel_ref / tests.)
struct ScalarBoys {
  int ltot = 0;
  double buf[kMaxBoysOrder + 1];
  FmView operator()(const PrimGeom& pg) {
    boys(ltot, pg.t, buf);
    return {buf, 1};
  }
};

/// Primitive source for the scalar path: computes geometry, prescreen, and
/// Boys values inline per primitive quartet.
struct ScalarPrimSource {
  int ltot = 0;
  double buf[kMaxBoysOrder + 1];
  bool next(const PrimPairData& bp, const PrimPairData& kp, PrimGeom& pg,
            FmView& fv) {
    pg = prim_geom(bp, kp);
    if (prim_skipped(bp, kp, pg.pref)) return false;
    boys(ltot, pg.t, buf);
    fv = {buf, 1};
    return true;
  }
};

/// Primitive source for the batched path: replays the survival decisions
/// and geometry phase 1 computed (one prim_geom per primitive quartet for
/// the whole pipeline -- the values are bitwise the ones the scalar path
/// recomputes, being a deterministic function of the same pair data), and
/// consumes consecutive columns of a boys_batch SoA block (fm[m * n + e]).
/// Phase 1 appended flags/geometry/T in enumeration order -- exactly the
/// order the kernel walks the primitive loops -- so monotone cursors
/// suffice.
struct BatchedPrimSource {
  static constexpr std::size_t kGeomStride = 5;  // pref, alpha, pq[3]
  const double* fm = nullptr;      ///< boys_batch block
  std::size_t n = 0;               ///< batch width (SoA stride)
  const std::uint8_t* survived = nullptr;  ///< per-(bp,kp) phase-1 verdicts
  const double* geom = nullptr;    ///< per-survivor geometry records
  std::size_t cursor = 0;          ///< next survivor column
  std::size_t flag_cursor = 0;     ///< next (bp, kp) flag
  bool next(const PrimPairData& /*bp*/, const PrimPairData& /*kp*/,
            PrimGeom& pg, FmView& fv) {
    if (!survived[flag_cursor++]) return false;
    const double* rec = geom + cursor * kGeomStride;
    pg.pref = rec[0];
    pg.alpha = rec[1];
    pg.pq[0] = rec[2];
    pg.pq[1] = rec[3];
    pg.pq[2] = rec[4];
    fv = {fm + cursor, n};
    ++cursor;
    return true;
  }
};

/// Largest per-side L (= l1 + l2) the class tables cover: shells up to
/// l = 8, comfortably past every built-in basis, and the matching
/// QuartetBatch class-dim bound. ltot then tops out at kMaxBoysOrder.
inline constexpr int kMaxSideL = 16;

/// Per-(L, ltot) side table: one side's Hermite triangle
/// {(t,u,v) : t+u+v <= L} enumerated lexicographically, with each entry's
/// linear offset into the combined R cube of dimension d = ltot + 1 and
/// the (-1)^(t+u+v) ket parity.
struct ClassTab {
  int n = 0;                     ///< triangle size: hermite_tri_size(L)
  std::vector<int> r_off;        ///< [(t*d + u)*d + v]
  std::vector<std::uint8_t> neg; ///< (t + u + v) & 1
};

/// Lazily-built read-only store of every side table (thread-safe magic
/// static; built once, ~350 KB, then read-shared by all threads).
inline const ClassTab& class_tab(int l, int ltot) {
  static const auto tabs = [] {
    auto t = std::make_unique<
        std::array<ClassTab, (kMaxSideL + 1) * (kMaxBoysOrder + 1)>>();
    for (int l2 = 0; l2 <= kMaxSideL; ++l2) {
      for (int lt = l2; lt <= kMaxBoysOrder; ++lt) {
        ClassTab& tab = (*t)[static_cast<std::size_t>(
            l2 * (kMaxBoysOrder + 1) + lt)];
        const int d = lt + 1;
        tab.n = hermite_tri_size(l2);
        tab.r_off.reserve(static_cast<std::size_t>(tab.n));
        tab.neg.reserve(static_cast<std::size_t>(tab.n));
        for (int tt = 0; tt <= l2; ++tt) {
          for (int u = 0; u <= l2 - tt; ++u) {
            for (int v = 0; v <= l2 - tt - u; ++v) {
              tab.r_off.push_back((tt * d + u) * d + v);
              tab.neg.push_back(
                  static_cast<std::uint8_t>((tt + u + v) & 1));
            }
          }
        }
      }
    }
    return t;
  }();
  MC_CHECK(l >= 0 && l <= kMaxSideL && ltot >= l && ltot <= kMaxBoysOrder,
           "ERI class outside the side-table range");
  return (*tabs)[static_cast<std::size_t>(l * (kMaxBoysOrder + 1) + ltot)];
}

/// Compile-time variant of ClassTab for the constant-L kernel
/// instantiations: same enumeration, same values, but the offsets and
/// parities are constexpr so the unrolled loops see immediates (and the
/// hot path skips the class_tab magic-static guard).
template <int L, int LTOT>
struct StaticClassTab {
  static constexpr int kN = hermite_tri_size(L);
  int off[static_cast<std::size_t>(kN)] = {};
  std::uint8_t neg[static_cast<std::size_t>(kN)] = {};
  constexpr StaticClassTab() {
    int i = 0;
    constexpr int d = LTOT + 1;
    for (int t = 0; t <= L; ++t) {
      for (int u = 0; u <= L - t; ++u) {
        for (int v = 0; v <= L - t - u; ++v) {
          off[static_cast<std::size_t>(i)] = (t * d + u) * d + v;
          neg[static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>((t + u + v) & 1);
          ++i;
        }
      }
    }
  }
};

template <int L, int LTOT>
inline constexpr StaticClassTab<L, LTOT> kStaticClassTab{};

/// Kernel body shared by every angular class. LB / LK are the side L
/// values when known at compile time (every class the built-in bases
/// produce, once oriented, is dispatched to a constant instantiation
/// below: the R recursion then runs in a stack FixedRTable with constant
/// bounds, and the gather/accumulate loops have constant trip counts) or
/// -1 for the runtime-L fallback, which builds into the caller's RTable.
/// Identical loop structure and arithmetic either way, so the
/// specializations are bitwise-identical to the fallback by construction.
template <int LB, int LK, typename PrimSource>
void eri_quartet_kernel_impl(const ShellPairData& bra,
                             const ShellPairData& ket, PrimSource&& src,
                             std::vector<double>& g_scratch,
                             std::vector<double>& rmat_scratch, RTable& r,
                             double* out) {
  constexpr bool kStatic = (LB >= 0 && LK >= 0);
  // Unused (order 0) in the runtime-L fallback.
  FixedRTable<kStatic ? LB + LK : 0> rfix;
  const int ncomp_ab = bra.ncomp();
  const int ncomp_cd = ket.ncomp();
  const int lb = kStatic ? LB : bra.lsum();
  const int lk = kStatic ? LK : ket.lsum();
  const int ltot = lb + lk;

  const std::size_t nout =
      static_cast<std::size_t>(ncomp_ab) * static_cast<std::size_t>(ncomp_cd);
  for (std::size_t i = 0; i < nout; ++i) out[i] = 0.0;

  const int nb = kStatic ? hermite_tri_size(LB < 0 ? 0 : LB)
                         : class_tab(lb, ltot).n;
  const int nq = kStatic ? hermite_tri_size(LK < 0 ? 0 : LK)
                         : class_tab(lk, ltot).n;
  const int* bra_off;
  const int* ket_off;
  const std::uint8_t* ket_neg;
  if constexpr (kStatic) {
    bra_off = kStaticClassTab<LB, LB + LK>.off;
    ket_off = kStaticClassTab<LK, LB + LK>.off;
    ket_neg = kStaticClassTab<LK, LB + LK>.neg;
  } else {
    const ClassTab& tb = class_tab(lb, ltot);
    const ClassTab& tk = class_tab(lk, ltot);
    bra_off = tb.r_off.data();
    ket_off = tk.r_off.data();
    ket_neg = tk.neg.data();
  }

  // G[cd][p] over the compact bra triangle, reused across primitives.
  const std::size_t gsize =
      static_cast<std::size_t>(ncomp_cd) * static_cast<std::size_t>(nb);
  if (g_scratch.size() < gsize) g_scratch.resize(gsize);
  double* g = g_scratch.data();
  const std::size_t rsize =
      static_cast<std::size_t>(nq) * static_cast<std::size_t>(nb);
  if (rmat_scratch.size() < rsize) rmat_scratch.resize(rsize);
  double* rmat = rmat_scratch.data();

  PrimGeom pg;
  FmView fv;
  for (const PrimPairData& bp : bra.prims) {
    std::fill_n(g, gsize, 0.0);

    for (const PrimPairData& kp : ket.prims) {
      if (!src.next(bp, kp, pg, fv)) continue;
      const double* rd;
      if constexpr (kStatic) {
        rfix.build_from(pg.alpha, pg.pq, fv.fm, fv.stride);
        rd = rfix.data();
      } else {
        r.build_from(ltot, pg.alpha, pg.pq, fv.fm, fv.stride);
        rd = r.data();
      }

      // Gather the Hermite Coulomb tensor into a dense [q][p] matrix:
      // element (q, p) = R_{t+tau, u+nu, v+phi} at cube offset
      // ket_off[q] + bra_off[p] (linearity of the cube index). One pass,
      // shared by every ket component below.
      for (int q = 0; q < nq; ++q) {
        const int qoff = ket_off[q];
        double* rrow = rmat + static_cast<std::size_t>(q) * nb;
        for (int p = 0; p < nb; ++p) {
          rrow[p] = rd[static_cast<std::size_t>(qoff + bra_off[p])];
        }
      }

      // Ket accumulation: G[cd][:] += w * R-row, unit stride over the bra
      // triangle. Same (tau,nu,phi) term order and the same products
      // w * R as the reference kernel -- bitwise identical G.
      for (int cd = 0; cd < ncomp_cd; ++cd) {
        const double* hk = kp.hermite_tri.data() +
                           static_cast<std::size_t>(cd) * nq;
        double* gc = g + static_cast<std::size_t>(cd) * nb;
        for (int q = 0; q < nq; ++q) {
          const double hval = hk[q];
          if (hval == 0.0) continue;
          const double w = pg.pref * (ket_neg[q] ? -hval : hval);
          const double* rrow = rmat + static_cast<std::size_t>(q) * nb;
#pragma omp simd
          for (int p = 0; p < nb; ++p) {
            gc[p] += w * rrow[p];
          }
        }
      }
    }

    // Bra contraction against compact G: sequential p-order dot products,
    // summation order identical to the reference kernel's (t,u,v) walk.
    for (int ab = 0; ab < ncomp_ab; ++ab) {
      const double* hb = bp.hermite_tri.data() +
                         static_cast<std::size_t>(ab) * nb;
      double* orow = out + static_cast<std::size_t>(ab) * ncomp_cd;
      for (int cd = 0; cd < ncomp_cd; ++cd) {
        const double* gc = g + static_cast<std::size_t>(cd) * nb;
        double s = 0.0;
        for (int p = 0; p < nb; ++p) {
          s += hb[p] * gc[p];
        }
        orow[cd] += s;
      }
    }
  }
}

/// Contracted ERI batch for one (bra, ket) shell-pair quartet in canonical
/// orientation [bra.s1][bra.s2][ket.s1][ket.s2]; `src.next(bp, kp, pg, fv)`
/// decides survival and supplies geometry plus Boys values for each
/// primitive quartet (ScalarPrimSource computes them inline,
/// BatchedPrimSource replays phase-1 state). Fully initializes `out`.
/// `g_scratch` holds the compact G accumulator (ncomp_cd x bra triangle),
/// `rmat_scratch` the gathered R matrix (ket triangle x bra triangle); both
/// grow once and are reused across quartets. `r` is only used by the
/// runtime-L fallback.
///
/// Orientation-agnostic: it evaluates whichever pair it is given as the
/// bra in the outer loop. The production paths orient each quartet first
/// (orient_quartet in eri.hpp: the higher-Lsum pair runs outer), so the
/// classes they send are those with Lbra >= Lket. Dispatch on the
/// evaluated class:
/// (ssss) collapses to one multiply-add per primitive quartet (R_000 = F_0
/// exactly -- the recursion seeds level 0 with 1.0 * fm[0] -- and every
/// triangle is the single point (0,0,0)); every other Lbra >= Lket class
/// up to (4,4) -- all that s/p/d shells produce, so all of the built-in
/// bases -- runs a constant-(LB, LK) instantiation of the shared body;
/// Lsum > 4 on either side (f shells and up) and unoriented calls with
/// Lbra < Lket take the runtime-L fallback.
template <typename PrimSource>
void eri_quartet_kernel(const ShellPairData& bra, const ShellPairData& ket,
                        PrimSource&& src, std::vector<double>& g_scratch,
                        std::vector<double>& rmat_scratch, RTable& r,
                        double* out) {
  const int lb = bra.lsum();
  const int lk = ket.lsum();

  if (lb + lk == 0) {
    // Term order and product association match the general body
    // ((pref * hval) then * F_0; hb * g; += into out[0]) -- bitwise
    // identical, just without building an R table.
    PrimGeom pg;
    FmView fv;
    out[0] = 0.0;
    for (const PrimPairData& bp : bra.prims) {
      double g0 = 0.0;
      for (const PrimPairData& kp : ket.prims) {
        if (!src.next(bp, kp, pg, fv)) continue;
        const double hval = kp.hermite_tri[0];
        if (hval == 0.0) continue;
        g0 += (pg.pref * hval) * fv.fm[0];
      }
      out[0] += bp.hermite_tri[0] * g0;
    }
    return;
  }

  switch (lb * (kMaxSideL + 1) + lk) {
#define MC_ERI_CLASS_CASE(B, K)                                            \
  case (B) * (kMaxSideL + 1) + (K):                                        \
    eri_quartet_kernel_impl<B, K>(bra, ket, src, g_scratch, rmat_scratch,  \
                                  r, out);                                 \
    return;
    MC_ERI_CLASS_CASE(1, 0)
    MC_ERI_CLASS_CASE(1, 1)
    MC_ERI_CLASS_CASE(2, 0)
    MC_ERI_CLASS_CASE(2, 1)
    MC_ERI_CLASS_CASE(2, 2)
    MC_ERI_CLASS_CASE(3, 0)
    MC_ERI_CLASS_CASE(3, 1)
    MC_ERI_CLASS_CASE(3, 2)
    MC_ERI_CLASS_CASE(3, 3)
    MC_ERI_CLASS_CASE(4, 0)
    MC_ERI_CLASS_CASE(4, 1)
    MC_ERI_CLASS_CASE(4, 2)
    MC_ERI_CLASS_CASE(4, 3)
    MC_ERI_CLASS_CASE(4, 4)
#undef MC_ERI_CLASS_CASE
    default:
      eri_quartet_kernel_impl<-1, -1>(bra, ket, src, g_scratch,
                                      rmat_scratch, r, out);
      return;
  }
}

/// Reference kernel: the original nested-loop form over the full Hermite
/// cubes, kept verbatim as the oracle for the restructured kernel above
/// (test_ints pins eri_quartet_kernel == eri_quartet_kernel_ref at 0 ULP
/// per element). Not used by any production path.
template <typename BoysSource>
void eri_quartet_kernel_ref(const ShellPairData& bra,
                            const ShellPairData& ket, BoysSource&& boys_src,
                            std::vector<double>& g_scratch, RTable& r,
                            double* out) {
  const int ncomp_ab = bra.ncomp();
  const int ncomp_cd = ket.ncomp();
  const std::size_t herm_ab = bra.herm_size();
  const int hab = bra.hd;
  const int hcd = ket.hd;
  const std::size_t herm_cd = static_cast<std::size_t>(hcd) * hcd * hcd;
  const int lb = hab - 1;  // bra.l1 + bra.l2
  const int lk = hcd - 1;  // ket.l1 + ket.l2
  const int ltot = lb + lk;

  const std::size_t nout =
      static_cast<std::size_t>(ncomp_ab) * static_cast<std::size_t>(ncomp_cd);
  for (std::size_t i = 0; i < nout; ++i) out[i] = 0.0;

  // G[cd][t,u,v] over the *bra* Hermite range, reused across primitives.
  const std::size_t gsize = static_cast<std::size_t>(ncomp_cd) * herm_ab;
  if (g_scratch.size() < gsize) g_scratch.resize(gsize);
  double* g = g_scratch.data();

  for (const PrimPairData& bp : bra.prims) {
    std::fill_n(g, gsize, 0.0);

    for (const PrimPairData& kp : ket.prims) {
      const PrimGeom pg = prim_geom(bp, kp);
      if (prim_skipped(bp, kp, pg.pref)) continue;
      const FmView fv = boys_src(pg);
      r.build_from(ltot, pg.alpha, pg.pq, fv.fm, fv.stride);

      for (int cd = 0; cd < ncomp_cd; ++cd) {
        const double* hk = kp.hermite.data() +
                           static_cast<std::size_t>(cd) * herm_cd;
        double* gc = g + static_cast<std::size_t>(cd) * herm_ab;
        for (int tau = 0; tau <= lk; ++tau) {
          for (int nu = 0; nu <= lk - tau; ++nu) {
            for (int phi = 0; phi <= lk - tau - nu; ++phi) {
              const double hval = hk[(tau * hcd + nu) * hcd + phi];
              if (hval == 0.0) continue;
              const double w =
                  pg.pref * (((tau + nu + phi) & 1) ? -hval : hval);
              for (int t = 0; t <= lb; ++t) {
                const int rt = t + tau;
                for (int u = 0; u <= lb - t; ++u) {
                  const int ru = u + nu;
                  double* grow = gc + (t * hab + u) * hab;
                  const int vend = lb - t - u;
                  for (int v = 0; v <= vend; ++v) {
                    grow[v] += w * r(rt, ru, v + phi);
                  }
                }
              }
            }
          }
        }
      }
    }

    // Contract the bra Hermite coefficients against G, triangle-bounded:
    // hb entries with t+u+v > lb are exactly zero by construction.
    for (int ab = 0; ab < ncomp_ab; ++ab) {
      const double* hb =
          bp.hermite.data() + static_cast<std::size_t>(ab) * herm_ab;
      double* orow = out + static_cast<std::size_t>(ab) * ncomp_cd;
      for (int cd = 0; cd < ncomp_cd; ++cd) {
        const double* gc = g + static_cast<std::size_t>(cd) * herm_ab;
        double s = 0.0;
        for (int t = 0; t <= lb; ++t) {
          for (int u = 0; u <= lb - t; ++u) {
            const std::size_t base = static_cast<std::size_t>(t * hab + u) *
                                     static_cast<std::size_t>(hab);
            for (int v = 0; v <= lb - t - u; ++v) {
              s += hb[base + static_cast<std::size_t>(v)] *
                   gc[base + static_cast<std::size_t>(v)];
            }
          }
        }
        orow[cd] += s;
      }
    }
  }
}

/// Gather a kernel-orientation batch into the caller's [i][j][k][l]
/// layout (q.in_place == false; the in-place case needs no copy).
inline void permute_to_caller(const double* kernel_out,
                              const OrientedQuartet& q, double* out) {
  std::size_t o = 0;
  for (int a = 0; a < q.n[0]; ++a) {
    const double* pa = kernel_out + static_cast<std::size_t>(a) * q.stride[0];
    for (int b = 0; b < q.n[1]; ++b) {
      const double* pb = pa + static_cast<std::size_t>(b) * q.stride[1];
      for (int c = 0; c < q.n[2]; ++c) {
        const double* pc = pb + static_cast<std::size_t>(c) * q.stride[2];
        for (int d = 0; d < q.n[3]; ++d) {
          out[o++] = pc[static_cast<std::size_t>(d) * q.stride[3]];
        }
      }
    }
  }
}

}  // namespace mc::ints::detail
