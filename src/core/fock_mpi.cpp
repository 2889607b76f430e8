#include "core/fock_mpi.hpp"

#include "common/error.hpp"
#include "ints/eri_batch.hpp"
#include "obs/trace.hpp"

namespace mc::core {

void FockBuilderMpi::build(const la::Matrix& density, la::Matrix& g,
                           const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:mpi");
  const scf::QuartetCascade cascade = begin_build(density, ctx);
  const basis::BasisSet& bs = eri_->basis_set();
  MC_CHECK(g.rows() == bs.nbf() && g.cols() == bs.nbf(), "G shape mismatch");

  // The DLB counter walks the precompacted Schwarz-sorted pair list --
  // screened-out pairs never hit the shared counter, and the heaviest
  // pairs are claimed first.
  const auto& pairs = screen_->sorted_pairs();
  ddi_->dlb_reset();

  // GAMESS-style DLB: the loop body runs only for iterations whose global
  // index matches the next value handed out by the shared counter. Each
  // claimed pair's survivors queue for batched evaluation and are
  // scattered into the process-local replicated G in discovery order, so
  // a single rank matches SerialFockBuilder bitwise.
  ints::QuartetBatch batch(*eri_);
  long next = ddi_->dlbnext();
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    if (static_cast<long>(p) != next) continue;
    next = ddi_->dlbnext();
    ++stats_.pairs_claimed;
    const std::size_t i = pairs[p].i;
    const std::size_t j = pairs[p].j;
    cascade.for_each_kept(
        i, j, stats_, [&](std::size_t k, std::size_t l, unsigned w) {
          batch.add(i, j, k, l, 0, w);
          if (batch.full()) scf::scatter_batch(bs, batch, density, g);
        });
  }
  scf::scatter_batch(bs, batch, density, g);
  stats_.thread_quartets = {stats_.quartets};

  // 2e-Fock matrix reduction over ranks, then every rank expands the
  // reduced symmetry-unique skeleton alike.
  ddi_->gsumf(g);
  cascade.project(g);
}

}  // namespace mc::core
