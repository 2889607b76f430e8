#pragma once
// Algorithm 1 of the paper: the stock GAMESS MPI-only SCF parallelization.
//
// Every rank owns fully replicated density and Fock matrices. Work is
// distributed by a global dynamic-load-balance counter over the screened,
// Schwarz-sorted (i,j) shell-pair list precomputed by ints::Screening
// (ddi_dlbnext); each claimed pair runs the full (k,l) inner loop with
// Schwarz and, when the FockContext carries density block norms,
// density-weighted screening. Claiming the most expensive pairs first
// leaves only cheap tasks for the tail of the DLB counter, which shrinks
// the load imbalance window at the barrier. The per-rank partial Fock
// matrices are summed with ddi_gsumf at the end.
//
// This is the baseline whose memory footprint (eq. 3a: 5/2 N^2 per rank)
// and coarse task granularity the hybrid algorithms improve on.

#include "par/ddi.hpp"
#include "scf/fock_builder.hpp"

namespace mc::core {

class FockBuilderMpi : public scf::FockBuilder {
 public:
  FockBuilderMpi(const ints::EriEngine& eri, const ints::Screening& screen,
                 par::Ddi& ddi)
      : FockBuilder(screen), eri_(&eri), ddi_(&ddi) {}

  [[nodiscard]] std::string name() const override { return "mpi-only"; }

  /// Collective over all ranks: every rank contributes its claimed pairs
  /// and receives the fully reduced skeleton matrix.
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

 private:
  const ints::EriEngine* eri_;
  par::Ddi* ddi_;
};

}  // namespace mc::core
