#include "scf/fock_builder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "ints/eri_batch.hpp"

namespace mc::scf {

FockContext FockContext::from_density(const basis::BasisSet& bs,
                                      const la::Matrix& d, bool incremental) {
  FockContext ctx;
  const std::size_t ns = bs.nshells();
  ctx.nshells = ns;
  ctx.incremental = incremental;
  ctx.dmax.assign(ns * ns, 0.0);
  MC_CHECK(d.rows() == bs.nbf() && d.cols() == bs.nbf(),
           "density shape mismatch");
  for (std::size_t si = 0; si < ns; ++si) {
    const basis::Shell& shi = bs.shell(si);
    for (std::size_t sj = 0; sj <= si; ++sj) {
      const basis::Shell& shj = bs.shell(sj);
      double m = 0.0;
      for (int a = 0; a < shi.nfunc(); ++a) {
        const std::size_t fa = shi.first_bf + static_cast<std::size_t>(a);
        for (int b = 0; b < shj.nfunc(); ++b) {
          const std::size_t fb = shj.first_bf + static_cast<std::size_t>(b);
          m = std::max(m, std::abs(d(fa, fb)));
        }
      }
      ctx.dmax[si * ns + sj] = m;
      ctx.dmax[sj * ns + si] = m;
      ctx.dmax_max = std::max(ctx.dmax_max, m);
    }
  }
  return ctx;
}

QuartetCascade::QuartetCascade(const ints::Screening& screen,
                               const FockContext& ctx, bool symmetric)
    : screen_(&screen),
      ctx_(&ctx),
      group_(symmetric && screen.point_group().order() > 1
                 ? &screen.point_group()
                 : nullptr),
      weighted_(ctx.weighted()),
      pair_dmax_(4.0 * ctx.dmax_max),
      scale_(ctx.threshold_scale) {
  if (weighted_) {
    MC_CHECK(ctx.nshells == screen.nshells() &&
                 ctx.dmax.size() == ctx.nshells * ctx.nshells,
             "FockContext was built for another basis (shell count "
             "mismatch)");
  }
}

QuartetCascade QuartetCascade::for_density(const ints::Screening& screen,
                                           const la::Matrix& density,
                                           const FockContext& ctx) {
  const ints::PointGroup& group = screen.point_group();
  return QuartetCascade(
      screen, ctx,
      group.order() > 1 &&
          group.asymmetry(density) <= kSymmetryTolerance * screen.threshold());
}

std::size_t QuartetCascade::count_kept() const {
  BuildStats stats;
  for (const ints::ScreenedPair& pr : screen_->sorted_pairs()) {
    for_each_kept(pr.i, pr.j, stats,
                  [](std::size_t, std::size_t, unsigned) {});
  }
  return stats.quartets;
}

QuartetCascade FockBuilder::begin_build(const la::Matrix& density,
                                        const FockContext& ctx) {
  MC_CHECK(screen_ != nullptr, "builder has no Screening attached");
  stats_ = BuildStats{};
  QuartetCascade cascade = QuartetCascade::for_density(*screen_, density, ctx);
  stats_.group_order = cascade.group_order();
  return cascade;
}

namespace {

/// One row of a replicated matrix.
struct MatrixRow {
  double* p;
  void add(std::size_t c, double v) const { p[c] += v; }
};

/// The replicated-matrix route: all six updates land in g.
struct MatrixRoute {
  const la::Matrix& dm;
  la::Matrix& gm;
  [[nodiscard]] MatrixRow f_i(int /*a*/, std::size_t r) const {
    return {gm.row(r)};
  }
  [[nodiscard]] MatrixRow f_j(int /*b*/, std::size_t r) const {
    return {gm.row(r)};
  }
  [[nodiscard]] MatrixRow f_k(int /*c*/, std::size_t r) const {
    return {gm.row(r)};
  }
  [[nodiscard]] const double* d(std::size_t r) const { return dm.row(r); }
};

}  // namespace

void scatter_quartet(const basis::BasisSet& bs, std::size_t si,
                     std::size_t sj, std::size_t sk, std::size_t sl,
                     unsigned weight, const double* vals,
                     const la::Matrix& d, la::Matrix& g) {
  scatter_updates(bs, si, sj, sk, sl, weight, vals, MatrixRoute{d, g});
}

void scatter_batch(const basis::BasisSet& bs, ints::QuartetBatch& batch,
                   const la::Matrix& d, la::Matrix& g) {
  batch.evaluate();
  const MatrixRoute route{d, g};
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    const ints::QuartetBatch::Entry& e = batch.quartets()[idx];
    scatter_updates(bs, e.si, e.sj, e.sk, e.sl, e.weight, batch.result(idx),
                    route);
  }
  batch.clear();
}

}  // namespace mc::scf
