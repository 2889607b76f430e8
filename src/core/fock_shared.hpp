#pragma once
// Algorithm 3 of the paper: hybrid MPI/OpenMP SCF with *shared density and
// shared Fock* matrices -- the paper's central contribution ("To the best
// of our knowledge, having a shared Fock matrix is an unique feature of our
// implementation").
//
// MPI level: the global DLB counter hands out positions in the Screening's
// precomputed *bra-grouped* pair list (finer-grained than Algorithm 2's i
// loop -- the reason this algorithm load-balances best at scale, Table 3).
// The list keeps all pairs of one i shell contiguous -- preserving the
// lazy-FI-flush invariant of at most one flush per i change -- and orders
// the i groups by descending screened work so the DLB tail is cheap.
// OpenMP level: threads dynamically share the merged (kl) loop over
// canonical pair indices kl <= ij.
//
// Race-freedom by construction, per the paper:
//  * F_kl is written directly to the shared matrix: threads hold distinct
//    kl pairs, so the (k,l) shell blocks are disjoint.
//  * Contributions to shell-i columns (F_ij, F_ik, F_il) go to the
//    thread-private FI buffer; shell-j columns (F_jk, F_jl) to FJ.
//  * FJ is flushed (column-partitioned reduction over thread columns,
//    Figure 1B) after every kl loop; FI is flushed lazily, only when the
//    next pair's i differs -- usually it does not, which is the key
//    optimization.
//  * Thread columns are padded by one cache line to avoid false sharing.
//  * Two team barriers per claimed pair (DESIGN.md 8.1): the master claims
//    the next pair ahead and the end-of-kl barrier publishes it; the
//    column owners' flush (read and zero every lane) is ordered before the
//    next kl loop by that pair's start barrier.

#include "par/ddi.hpp"
#include "scf/fock_builder.hpp"

namespace mc::core {

struct SharedFockOptions {
  int nthreads = 1;
  /// schedule(dynamic,1) on the kl loop when true (paper's choice).
  bool dynamic_schedule = true;
};

class FockBuilderShared : public scf::FockBuilder {
 public:
  FockBuilderShared(const ints::EriEngine& eri,
                    const ints::Screening& screen, par::Ddi& ddi,
                    SharedFockOptions options = {})
      : FockBuilder(screen), eri_(&eri), ddi_(&ddi), opt_(options) {}

  [[nodiscard]] std::string name() const override { return "shared-fock"; }

  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

  /// FI buffer flushes in the last build: the number of runs of equal i
  /// among the pairs the team worked on, not the number of ij pairs.
  [[nodiscard]] std::size_t last_fi_flushes() const { return fi_flushes_; }

 private:
  const ints::EriEngine* eri_;
  par::Ddi* ddi_;
  SharedFockOptions opt_;
  std::size_t fi_flushes_ = 0;
};

}  // namespace mc::core
