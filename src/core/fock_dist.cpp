#include "core/fock_dist.hpp"

#include <algorithm>
#include <vector>

#include "common/access.hpp"
#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "obs/trace.hpp"

namespace mc::core {

TileLayout TileLayout::build(const basis::BasisSet& bs, int nranks) {
  MC_CHECK(nranks >= 1, "TileLayout needs at least one rank");
  TileLayout lay;
  lay.nbf = bs.nbf();
  const std::size_t nshells = bs.nshells();
  MC_CHECK(nshells > 0, "TileLayout needs a non-empty basis");

  // About four tiles per rank keeps the cyclic owner assignment balanced
  // while tiles stay panel-sized; never below a shell width.
  const std::size_t target = std::max<std::size_t>(
      static_cast<std::size_t>(bs.max_shell_size()),
      lay.nbf / (4 * static_cast<std::size_t>(nranks)));

  // Walk shells, closing a tile at the first shell boundary at or past
  // `target` rows. Shells never straddle tiles, so a shell's rows live in
  // exactly one tile (shell_tile below is well defined).
  lay.tile_row0.push_back(0);
  lay.shell_tile.resize(nshells);
  std::size_t rows_in_tile = 0;
  for (std::size_t s = 0; s < nshells; ++s) {
    lay.shell_tile[s] = static_cast<std::uint32_t>(lay.tile_row0.size() - 1);
    rows_in_tile += static_cast<std::size_t>(bs.shell(s).nfunc());
    const bool last = (s + 1 == nshells);
    if (rows_in_tile >= target || last) {
      lay.tile_row0.push_back(lay.tile_row0.back() + rows_in_tile);
      rows_in_tile = 0;
    }
  }
  lay.ntiles = lay.tile_row0.size() - 1;
  MC_CHECK(lay.tile_row0.back() == lay.nbf, "tile rows must cover the basis");

  lay.row_tile.resize(lay.nbf);
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    for (std::size_t r = lay.tile_row0[t]; r < lay.tile_row0[t + 1]; ++r) {
      lay.row_tile[r] = static_cast<std::uint32_t>(t);
    }
  }

  // Cyclic owners; window offsets rank-contiguous (each rank's segment is
  // its tiles back to back, in tile order).
  lay.owner.resize(lay.ntiles);
  lay.rank_elems.assign(static_cast<std::size_t>(nranks), 0);
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    lay.owner[t] = static_cast<int>(t % static_cast<std::size_t>(nranks));
  }
  std::vector<std::size_t> next_in_rank(static_cast<std::size_t>(nranks), 0);
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    lay.rank_elems[static_cast<std::size_t>(lay.owner[t])] +=
        lay.tile_elems(t);
  }
  std::vector<std::size_t> rank_base(static_cast<std::size_t>(nranks) + 1, 0);
  for (int r = 0; r < nranks; ++r) {
    rank_base[static_cast<std::size_t>(r) + 1] =
        rank_base[static_cast<std::size_t>(r)] +
        lay.rank_elems[static_cast<std::size_t>(r)];
  }
  lay.tile_offset.resize(lay.ntiles);
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    const auto r = static_cast<std::size_t>(lay.owner[t]);
    lay.tile_offset[t] = rank_base[r] + next_in_rank[r];
    next_in_rank[r] += lay.tile_elems(t);
  }
  return lay;
}

/// Rank-local density tiles over the D window. A tile is fetched with one
/// one-sided get on its first request and kept for the rest of the build,
/// so each rank fetches each tile it reads once.
struct FockBuilderDist::DCache {
  DCache(const TileLayout& lay, par::Ddi& ddi, const par::Window& win)
      : lay_(&lay), ddi_(&ddi), win_(&win), tiles_(lay.ntiles) {}

  void request(std::uint32_t t) {
    if (tiles_[t].data() != nullptr) {
      ++hits_;
      return;
    }
    ++misses_;
    tiles_[t] = TrackedBuffer("dist-tile-cache", lay_->tile_elems(t));
    ddi_->get(*win_, lay_->tile_offset[t], tiles_[t].data(),
              lay_->tile_elems(t));
  }

  /// Row base pointer; the row's tile must be resident (request()ed).
  [[nodiscard]] const double* row(std::size_t r) const {
    const std::uint32_t t = lay_->row_tile[r];
    return tiles_[t].data() + (r - lay_->tile_row0[t]) * lay_->nbf;
  }

  const TileLayout* lay_;
  par::Ddi* ddi_;
  const par::Window* win_;
  std::vector<TrackedBuffer> tiles_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

/// Rank-local F panel accumulators. A panel opens zeroed on first touch
/// and every open panel is flushed to the F window with one ddi_acc at the
/// end of the build. Writes go through OwnedSlice so the MC_CHECK shadow
/// ledger (and mc-lint) sees every update as sanctioned.
struct FockBuilderDist::FAcc {
  FAcc(const TileLayout& lay, par::Ddi& ddi, const par::Window& win,
       acc::BuildChecker<>& checker, acc::ThreadCtx<>& th)
      : lay_(&lay), ddi_(&ddi), win_(&win), checker_(&checker), th_(&th),
        tiles_(lay.ntiles), region_(lay.ntiles, -1) {}

  void request(std::uint32_t t) {
    if (tiles_[t].data() != nullptr) return;
    tiles_[t] = TrackedBuffer("dist-fock-acc", lay_->tile_elems(t));
    region_[t] = checker_->region("dist-f-panel", lay_->tile_elems(t));
  }

  /// The row's panel as an annotated slice; must be request()ed first.
  [[nodiscard]] acc::OwnedSlice<double> row(std::size_t r) {
    const std::uint32_t t = lay_->row_tile[r];
    const std::size_t off = (r - lay_->tile_row0[t]) * lay_->nbf;
    return acc::OwnedSlice<double>(tiles_[t].data() + off, lay_->nbf, th_,
                                   region_[t], off);
  }

  void flush_all() {
    for (std::size_t t = 0; t < lay_->ntiles; ++t) {
      if (tiles_[t].data() == nullptr) continue;
      ddi_->acc(*win_, lay_->tile_offset[t], tiles_[t].data(),
                lay_->tile_elems(t));
      tiles_[t] = TrackedBuffer();
    }
  }

  const TileLayout* lay_;
  par::Ddi* ddi_;
  const par::Window* win_;
  acc::BuildChecker<>* checker_;
  acc::ThreadCtx<>* th_;
  std::vector<TrackedBuffer> tiles_;
  std::vector<int> region_;
};

void FockBuilderDist::flush_batch(ints::QuartetBatch& batch, DCache& dcache,
                                  FAcc& facc) {
  if (batch.empty()) return;
  const basis::BasisSet& bs = eri_->basis_set();
  batch.evaluate();

  // Make every tile this batch touches resident before the scatter: the
  // rows used are those of shells i, j, k -- in eqs. 2a-2f the l index
  // only ever appears as a column.
  for (const auto& e : batch.quartets()) {
    for (std::uint32_t s : {e.si, e.sj, e.sk}) {
      const std::uint32_t t = layout_->shell_tile[s];
      dcache.request(t);
      facc.request(t);
    }
  }

  // The dist route of scf::scatter_updates: F rows are rows of the open F
  // panels, D rows rows of the fetched density tiles. Scatter runs in
  // discovery order.
  struct TileRoute {
    DCache& dc;
    FAcc& fa;
    [[nodiscard]] acc::OwnedSlice<double> f_i(int /*a*/,
                                              std::size_t r) const {
      return fa.row(r);
    }
    [[nodiscard]] acc::OwnedSlice<double> f_j(int /*b*/,
                                              std::size_t r) const {
      return fa.row(r);
    }
    [[nodiscard]] acc::OwnedSlice<double> f_k(int /*c*/,
                                              std::size_t r) const {
      return fa.row(r);
    }
    [[nodiscard]] const double* d(std::size_t r) const { return dc.row(r); }
  };
  const TileRoute route{dcache, facc};
  for (std::size_t idx = 0; idx < batch.size(); ++idx) {
    const ints::QuartetBatch::Entry& e = batch.quartets()[idx];
    scf::scatter_updates(bs, e.si, e.sj, e.sk, e.sl, e.weight,
                         batch.result(idx), route);
  }
  batch.clear();
}

void FockBuilderDist::build(const la::Matrix& density, la::Matrix& g,
                            const scf::FockContext& ctx) {
  MC_OBS_TRACE("fock:dist");
  const scf::QuartetCascade cascade = begin_build(density, ctx);
  const basis::BasisSet& bs = eri_->basis_set();
  const std::size_t nbf = bs.nbf();
  MC_CHECK(g.rows() == nbf && g.cols() == nbf, "G shape mismatch");

  if (!layout_) {
    layout_ = std::make_unique<TileLayout>(TileLayout::build(bs, ddi_->size()));
  }
  const TileLayout& lay = *layout_;
  const int rank = ddi_->rank();

  // One one-sided epoch per build: create, publish D, compute + acc F,
  // replicate, destroy. The windows hold 2 N^2 / nranks doubles per rank
  // -- the footprint the replicated algorithms cannot shed.
  par::Window dwin = ddi_->create("fock-dist:D", lay.rank_elems);
  par::Window fwin = ddi_->create("fock-dist:F", lay.rank_elems);

  // Publish this rank's D panels. Tiles are whole row panels, so each is
  // one contiguous block of the (replicated) input density.
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    if (lay.owner[t] != rank) continue;
    ddi_->put(dwin, lay.tile_offset[t],
              density.data() + lay.tile_row0[t] * nbf, lay.tile_elems(t));
  }
  ddi_->fence(dwin);  // D readable by every rank

  acc::BuildChecker<> checker(rank, /*nthreads=*/1);
  acc::ThreadCtx<> th(checker, /*tid=*/0);
  DCache dcache(lay, *ddi_, dwin);
  FAcc facc(lay, *ddi_, fwin, checker, th);

  // Algorithm 1's claim loop (GAMESS dlbnext sequence: one call before
  // the loop, one per claimed pair) over the Schwarz-sorted pair list;
  // only the route the scatter writes through differs from FockBuilderMpi.
  const auto& pairs = screen_->sorted_pairs();
  ddi_->dlb_reset();
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
          if (batch.full()) flush_batch(batch, dcache, facc);
        });
  }
  flush_batch(batch, dcache, facc);

  facc.flush_all();
  ddi_->fence(fwin);  // every rank's contributions accumulated

  // Replicate the reduced skeleton into the caller's G (the FockBuilder
  // contract; the drivers' diagonalization is replicated like the
  // paper's codes). Panel gets write every row of G.
  for (std::size_t t = 0; t < lay.ntiles; ++t) {
    ddi_->get(fwin, lay.tile_offset[t], g.data() + lay.tile_row0[t] * nbf,
              lay.tile_elems(t));
  }
  ddi_->fence(fwin);  // all copies out before the windows go away
  ddi_->destroy(fwin);
  ddi_->destroy(dwin);
  // Every rank expands the replicated symmetry-unique skeleton alike.
  cascade.project(g);

  stats_.thread_quartets = {stats_.quartets};
  stats_.tile_hits = dcache.hits_;
  stats_.tile_misses = dcache.misses_;
  checker.finalize();
}

}  // namespace mc::core
