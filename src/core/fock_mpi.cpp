#include "core/fock_mpi.hpp"

#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"

namespace mc::core {

void FockBuilderMpi::flush_batch(ints::QuartetBatch& batch,
                                 const la::Matrix& density, la::Matrix& g) {
  const basis::BasisSet& bs = eri_->basis_set();
  batch.evaluate();
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    const ints::QuartetBatch::Entry& e = batch.quartets()[idx];
    // Update the process-local replicated 2e-Fock matrix. Scatter runs in
    // discovery order, so G matches the scalar per-quartet path bitwise
    // (and a single rank matches SerialFockBuilder exactly).
    scf::scatter_quartet(bs, e.si, e.sj, e.sk, e.sl, batch.result(idx),
                         density, g);
  }
  batch.clear();
}

void FockBuilderMpi::process_pair(const ints::ScreenedPair& pair,
                                  const la::Matrix& density, la::Matrix& g,
                                  const scf::FockContext& ctx,
                                  ints::QuartetBatch& batch) {
  ++pairs_;
  const std::size_t i = pair.i;
  const std::size_t j = pair.j;
  const bool weighted = ctx.weighted();
  // Pair-level density prescreen: q_ij * qmax * 4*max|D| bounds every
  // quartet bound checked below, so a failing pair has no surviving work.
  if (weighted &&
      !screen_->keep_pair(i, j, 4.0 * ctx.dmax_max, ctx.threshold_scale)) {
    return;
  }
  scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
    if (!screen_->keep(i, j, k, l)) {  // Schwartz screening
      ++static_screened_;
      return;
    }
    if (weighted && !screen_->keep(i, j, k, l, ctx.quartet_dmax(i, j, k, l),
                                   ctx.threshold_scale)) {
      ++density_screened_;
      return;
    }
    batch.add(i, j, k, l);  // (i,j|k,l) queued for batched evaluation
    ++quartets_;
    if (batch.full()) flush_batch(batch, density, g);
  });
}

void FockBuilderMpi::build(const la::Matrix& density, la::Matrix& g,
                           const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:mpi");
  const basis::BasisSet& bs = eri_->basis_set();
  MC_CHECK(g.rows() == bs.nbf() && g.cols() == bs.nbf(), "G shape mismatch");
  pairs_ = 0;
  quartets_ = 0;
  density_screened_ = 0;
  static_screened_ = 0;

  // The DLB counter walks the precompacted Schwarz-sorted pair list --
  // screened-out pairs never hit the shared counter, and the heaviest
  // pairs are claimed first.
  const auto& pairs = screen_->sorted_pairs();
  ddi_->dlb_reset();

  // GAMESS-style DLB: the loop body runs only for iterations whose global
  // index matches the next value handed out by the shared counter.
  ints::QuartetBatch batch(*eri_);
  long next = ddi_->dlbnext();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (static_cast<long>(p) != next) continue;
    next = ddi_->dlbnext();
    process_pair(pairs[p], density, g, ctx, batch);
  }
  flush_batch(batch, density, g);

  // 2e-Fock matrix reduction over ranks.
  ddi_->gsumf(g);
}

}  // namespace mc::core
