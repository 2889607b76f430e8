#pragma once
// Algorithm 2 of the paper: hybrid MPI/OpenMP SCF with a *shared density*
// and a *thread-private Fock* matrix.
//
// MPI level: the master thread of each rank claims the next i shell index
// from the global DLB counter (guarded by barriers), passing over shells
// with no pair the build keeps. OpenMP level: the
// combined (j,k) loop is collapsed and dynamically scheduled across the
// rank's threads; each thread accumulates into its own replicated Fock
// copy (hence eq. 3b: (2 + T) N^2 per rank). Thread copies are reduced
// into the rank matrix, then ranks reduce with ddi_gsumf.

#include "par/ddi.hpp"
#include "scf/fock_builder.hpp"

namespace mc::core {

struct PrivateFockOptions {
  int nthreads = 1;
  /// schedule(dynamic,1) on the collapsed (j,k) loop when true, static
  /// otherwise. The paper tested both and saw no significant difference
  /// (section 4.3); the ablation bench quantifies that claim here.
  bool dynamic_schedule = true;
};

class FockBuilderPrivate : public scf::FockBuilder {
 public:
  FockBuilderPrivate(const ints::EriEngine& eri,
                     const ints::Screening& screen, par::Ddi& ddi,
                     PrivateFockOptions options = {})
      : FockBuilder(screen), eri_(&eri), ddi_(&ddi), opt_(options) {}

  [[nodiscard]] std::string name() const override { return "private-fock"; }

  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

 private:
  const ints::EriEngine* eri_;
  par::Ddi* ddi_;
  PrivateFockOptions opt_;
};

}  // namespace mc::core
