#include "scf/serial_fock.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mc::scf {

void SerialFockBuilder::build(const la::Matrix& density, la::Matrix& g,
                              const FockContext& ctx) {
  MC_OBS_TRACE("fock:serial");
  const QuartetCascade cascade = begin_build(density, ctx);
  const basis::BasisSet& bs = eri_->basis_set();

  // Survivors queue into the batch and are digested in discovery order at
  // each flush, so the scatter summation order -- and therefore G --
  // matches the scalar reference path bitwise (flush boundaries never
  // change a value). The scalar path stays selectable so tests can pin the
  // two engines against each other (see test_incremental.cpp).
  const bool scalar = batch_capacity_ == 0;
  ints::QuartetBatch batch(*eri_, scalar ? 1 : batch_capacity_);
  std::vector<double> vals;
  for (const ints::ScreenedPair& pr : screen_->sorted_pairs()) {
    ++stats_.pairs_claimed;
    cascade.for_each_kept(
        pr.i, pr.j, stats_, [&](std::size_t k, std::size_t l, unsigned w) {
          if (scalar) {
            ints::ensure_batch_size(vals, eri_->batch_size(pr.i, pr.j, k, l));
            eri_->compute(pr.i, pr.j, k, l, vals.data());
            scatter_quartet(bs, pr.i, pr.j, k, l, w, vals.data(), density,
                            g);
            return;
          }
          batch.add(pr.i, pr.j, k, l, 0, w);
          if (batch.full()) scatter_batch(bs, batch, density, g);
        });
  }
  scatter_batch(bs, batch, density, g);
  cascade.project(g);
  stats_.thread_quartets = {stats_.quartets};
}

void BruteForceFockBuilder::build(const la::Matrix& density, la::Matrix& g,
                                  const FockContext& /*ctx*/) {
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  const std::size_t ns = bs.nshells();
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");

  // Direct evaluation of G[p][q] = sum_rs D[r][s] ((pq|rs) - 1/2 (pr|qs))
  // from full shell batches; no symmetry, no screening, no density
  // weighting -- definitionally correct regardless of the context.
  std::vector<double> batch;
  for (std::size_t s1 = 0; s1 < ns; ++s1) {
    const auto& shp = bs.shell(s1);
    for (std::size_t s2 = 0; s2 < ns; ++s2) {
      const auto& shq = bs.shell(s2);
      for (std::size_t s3 = 0; s3 < ns; ++s3) {
        const auto& shr = bs.shell(s3);
        for (std::size_t s4 = 0; s4 < ns; ++s4) {
          const auto& shs = bs.shell(s4);
          ints::ensure_batch_size(batch, eri_->batch_size(s1, s2, s3, s4));
          eri_->compute(s1, s2, s3, s4, batch.data());
          std::size_t idx = 0;
          for (int a = 0; a < shp.nfunc(); ++a) {
            for (int b = 0; b < shq.nfunc(); ++b) {
              for (int c = 0; c < shr.nfunc(); ++c) {
                for (int dd = 0; dd < shs.nfunc(); ++dd, ++idx) {
                  const double v = batch[idx];
                  const std::size_t fp = shp.first_bf + a;
                  const std::size_t fq = shq.first_bf + b;
                  const std::size_t fr = shr.first_bf + c;
                  const std::size_t fs = shs.first_bf + dd;
                  // Coulomb: (pq|rs) D_rs -> G_pq
                  g(fp, fq) += v * density(fr, fs);
                  // Exchange: (pq|rs) contributes to K_pr as D_qs (pq|rs).
                  g(fp, fr) -= 0.5 * v * density(fq, fs);
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace mc::scf
