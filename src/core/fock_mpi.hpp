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

#include <vector>

#include "ints/eri_batch.hpp"
#include "par/ddi.hpp"
#include "scf/fock_builder.hpp"

namespace mc::core {

class FockBuilderMpi : public scf::FockBuilder {
 public:
  FockBuilderMpi(const ints::EriEngine& eri, const ints::Screening& screen,
                 par::Ddi& ddi)
      : eri_(&eri), screen_(&screen), ddi_(&ddi) {}

  [[nodiscard]] std::string name() const override { return "mpi-only"; }

  /// Collective over all ranks: every rank contributes its claimed pairs
  /// and receives the fully reduced skeleton matrix.
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

  /// (i,j) pairs this rank processed in the last build (load statistics).
  [[nodiscard]] std::size_t last_pairs_claimed() const override {
    return pairs_;
  }
  /// Quartets this rank computed in the last build.
  [[nodiscard]] std::size_t last_quartets_computed() const override {
    return quartets_;
  }
  [[nodiscard]] std::size_t last_density_screened() const override {
    return density_screened_;
  }
  [[nodiscard]] std::size_t last_static_screened() const override {
    return static_screened_;
  }
  [[nodiscard]] std::vector<std::size_t> last_thread_quartets()
      const override {
    return {quartets_};
  }
  [[nodiscard]] std::size_t screening_predicted_quartets() const override {
    return screen_->count_surviving_quartets();
  }
  [[nodiscard]] double screening_threshold() const override {
    return screen_->threshold();
  }

 private:
  /// Queue the pair's surviving quartets into `batch`, flushing (evaluate
  /// + scatter into g, in discovery order) whenever it fills. The caller
  /// owns the batch across pairs and must flush_batch() once after its
  /// claim loop drains.
  void process_pair(const ints::ScreenedPair& pair, const la::Matrix& density,
                    la::Matrix& g, const scf::FockContext& ctx,
                    ints::QuartetBatch& batch);
  void flush_batch(ints::QuartetBatch& batch, const la::Matrix& density,
                   la::Matrix& g);

  const ints::EriEngine* eri_;
  const ints::Screening* screen_;
  par::Ddi* ddi_;
  std::size_t pairs_ = 0;
  std::size_t quartets_ = 0;
  std::size_t density_screened_ = 0;
  std::size_t static_screened_ = 0;
};

}  // namespace mc::core
