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
//   * Algorithm 1's pair loop claims Schwarz-sorted pairs with
//     ddi_dlbnext; each density tile a scatter reads is fetched from the
//     window on its first request and kept for the rest of the build;
//   * F contributions accumulate into rank-local panel buffers, opened on
//     first touch and flushed once each with one-sided ddi_acc at the end
//     -- there is no N^2 gsumf of a replicated matrix anywhere in the
//     build;
//   * a final fence + per-panel get replicates the reduced skeleton into
//     the caller's G (the SCF driver's diagonalization is replicated, as
//     in all the paper's codes), satisfying the FockBuilder contract.
//
// Per-rank D+F window footprint is 2 N^2 / nranks doubles (asserted by
// bench_table2_memory); the tiles a rank reads and the F panels it
// touches live only for the build. Numerics: per-quartet contributions
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

/// Shell-aligned row-panel tiling of an nbf x nbf matrix, with tiles
/// assigned cyclically to ranks and laid out rank-contiguously in a
/// window (rank r's segment holds its tiles back to back).
struct TileLayout {
  std::size_t nbf = 0;
  std::size_t ntiles = 0;
  std::vector<std::size_t> tile_row0;    ///< row fences, size ntiles+1
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
  /// past max(max shell size, nbf / (4 * nranks)) rows, i.e. about four
  /// tiles per rank so the cyclic owner assignment stays balanced.
  static TileLayout build(const basis::BasisSet& bs, int nranks);
};

class FockBuilderDist : public scf::FockBuilder {
 public:
  FockBuilderDist(const ints::EriEngine& eri, const ints::Screening& screen,
                  par::Ddi& ddi)
      : FockBuilder(screen), eri_(&eri), ddi_(&ddi) {}

  [[nodiscard]] std::string name() const override { return "dist-fock"; }

  /// Collective over all ranks (window creation, fences, and the final
  /// replication are synchronization points); every rank returns the
  /// fully reduced skeleton matrix.
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const scf::FockContext& ctx) override;

 private:
  struct DCache;  ///< rank-local density tiles fetched from the D window
  struct FAcc;    ///< rank-local F panel accumulators, acc-flushed

  void flush_batch(ints::QuartetBatch& batch, DCache& dcache, FAcc& facc);

  const ints::EriEngine* eri_;
  par::Ddi* ddi_;
  std::unique_ptr<TileLayout> layout_;
};

}  // namespace mc::core
