#pragma once
// Algorithm 4 (this repo's extension beyond the paper's three): a
// block-distributed Fock build over one-sided DDI windows, breaking the
// replicated-matrix memory ceiling of eqs. 3a-3c.
//
// The paper's builders all hold full N x N density and Fock matrices on
// every rank, which is exactly what makes its 5 nm / 30,240-BF dataset
// infeasible below the shared-Fock algorithm (Figure 7). Here D and F are
// tiled in shell-aligned row panels distributed across ranks (the
// HONPAS-style static block layout of arXiv:2009.03559 mapped onto our
// Schwarz-sorted pair lists):
//
//   * every rank puts its owned D panels into a window and fences once;
//   * one pair loop (claiming via ddi_dlbnext, or a static cyclic slice)
//     reads remote density panels through a rank-local tile cache with
//     claim-ahead prefetch, overlapping tile fetches with the batched ERI
//     pipeline;
//   * F contributions accumulate into rank-local panel buffers that are
//     flushed with one-sided ddi_acc -- there is no N^2 gsumf of a
//     replicated matrix anywhere in the build;
//   * a final fence + per-panel get replicates the reduced skeleton into
//     the caller's G (the SCF driver's diagonalization is replicated, as
//     in all the paper's codes), satisfying the FockBuilder contract.
//
// Per-rank D+F window footprint is 2 N^2 / nranks doubles (asserted by
// bench_table2_memory); the tile cache and open F panels add a bounded,
// tunable overlay (DistFockOptions). Numerics: per-quartet contributions
// are bitwise identical to the scalar path (same batch kernel, same
// discovery order); only the final per-element accumulation order differs
// (per-rank panels + acc instead of gsumf), so results stay within the
// reassociation ULP bound of the other builders -- and a 1-rank build is
// bitwise identical to SerialFockBuilder. DESIGN.md section 13.

#include <cstdint>
#include <memory>
#include <vector>

#include "ints/eri_batch.hpp"
#include "par/ddi.hpp"
#include "scf/fock_builder.hpp"

namespace mc::core {

struct DistFockOptions {
  /// Target rows per tile (rounded up to shell boundaries). 0 = auto:
  /// max(max_shell_size, nbf / (4 * nranks)), i.e. about four tiles per
  /// rank so the cyclic owner assignment stays balanced.
  int tile_rows = 0;
  /// Pairs claimed ahead of the one being processed; their bra density
  /// tiles are prefetched into the cache before the ERI pipeline needs
  /// them (>= 1 gives the double-buffered overlap, 0 disables).
  int prefetch_depth = 2;
  /// true: claim pairs with the global DLB counter (ddi_dlbnext), like
  /// Algorithm 1. false: HONPAS-style static distribution -- a cyclic
  /// slice of the Schwarz-sorted pair list, no shared counter.
  bool dynamic_lb = true;
  /// Resident density-tile budget (tiles, incl. prefetched). 0 =
  /// unlimited; small values bound cache memory at the cost of refetches.
  std::size_t max_cached_tiles = 0;
  /// Open local F panel budget. 0 = unlimited; exceeding it acc-flushes
  /// the least-recently-touched panel to the window early (correct --
  /// acc commutes -- but adds window traffic).
  std::size_t max_open_f_tiles = 0;
};

/// Shell-aligned row-panel tiling of an nbf x nbf matrix, with tiles
/// assigned cyclically to ranks and laid out rank-contiguously in a
/// window (rank r's segment holds its tiles back to back).
struct TileLayout {
  std::size_t nbf = 0;
  std::size_t ntiles = 0;
  std::vector<std::size_t> tile_row0;    ///< row fences, size ntiles+1
  std::vector<std::size_t> tile_shell0;  ///< shell fences, size ntiles+1
  std::vector<std::uint32_t> row_tile;   ///< row -> tile
  std::vector<std::uint32_t> shell_tile; ///< shell -> tile
  std::vector<int> owner;                ///< tile -> owning rank
  std::vector<std::size_t> tile_offset;  ///< tile -> window element offset
  std::vector<std::size_t> rank_elems;   ///< rank -> window segment size

  [[nodiscard]] std::size_t tile_rows(std::size_t t) const {
    return tile_row0[t + 1] - tile_row0[t];
  }
  [[nodiscard]] std::size_t tile_elems(std::size_t t) const {
    return tile_rows(t) * nbf;
  }

  /// Build the tiling: close a tile at the first shell boundary at or
  /// past `target_rows` rows (0 = auto, see DistFockOptions::tile_rows).
  static TileLayout build(const basis::BasisSet& bs, int nranks,
                          int target_rows);
};

class FockBuilderDist : public scf::FockBuilder {
 public:
  FockBuilderDist(const ints::EriEngine& eri, const ints::Screening& screen,
                  par::Ddi& ddi, DistFockOptions opt = {})
      : FockBuilder(screen), eri_(&eri), ddi_(&ddi), opt_(opt) {}

  [[nodiscard]] std::string name() const override { return "dist-fock"; }

  /// Collective over all ranks (window creation, fences, and the final
  /// replication are synchronization points); every rank returns the
  /// fully reduced skeleton matrix.
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

  /// Density-tile requests satisfied by the all-zero shortcut (tiles whose
  /// FockContext block norms are exactly zero are never fetched).
  [[nodiscard]] std::size_t last_zero_tile_hits() const { return zero_hits_; }
  /// Early acc-flushes forced by the max_open_f_tiles budget (the final
  /// flush of every open panel is not counted).
  [[nodiscard]] std::size_t last_early_flushes() const {
    return early_flushes_;
  }

  /// The tiling used by the last build (nullptr before the first build).
  [[nodiscard]] const TileLayout* layout() const { return layout_.get(); }

 private:
  struct DCache;  ///< rank-local density-tile cache over the D window
  struct FAcc;    ///< rank-local F panel accumulators, acc-flushed

  void flush_batch(ints::QuartetBatch& batch, DCache& dcache, FAcc& facc);

  const ints::EriEngine* eri_;
  par::Ddi* ddi_;
  DistFockOptions opt_;
  std::unique_ptr<TileLayout> layout_;

  std::size_t zero_hits_ = 0;
  std::size_t early_flushes_ = 0;
};

}  // namespace mc::core
