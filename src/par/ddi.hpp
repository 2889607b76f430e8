#pragma once
// Thin facade matching the Distributed Data Interface calls the paper's
// pseudocode uses (ddi_dlbnext, ddi_gsumf), so the Fock builders in
// src/core read like Algorithms 1-3.
//
// GAMESS's legacy DDI pairs every compute process with a data-server
// process; the paper used an experimental MPI-3 DDI without data servers.
// minimpi has no data servers either, so we model the MPI-3 variant (the
// one all three benchmarked codes used -- paper section 6.2).

#include "la/matrix.hpp"
#include "par/runtime.hpp"

namespace mc::par {

class Ddi {
 public:
  explicit Ddi(Comm& comm) : comm_(&comm) {}

  /// ddi_dlbnext: next global dynamic-load-balance task index (0-based).
  [[nodiscard]] long dlbnext() { return comm_->dlb_next(); }
  /// Collective: rewind the DLB counter (GAMESS does this between Fock
  /// builds).
  void dlb_reset() { comm_->dlb_reset(); }

  /// ddi_gsumf: global floating-point sum of a matrix over ranks.
  void gsumf(la::Matrix& m) { comm_->allreduce_sum(m.data(), m.size()); }

  // -- One-sided distributed arrays (ddi_create / ddi_put / ddi_get /
  // ddi_acc / ddi_sync / ddi_destroy). A Window is a block-distributed
  // array of doubles, rank r owning rank_elems[r] contiguous elements;
  // see par::Window for the completion/fence semantics.

  /// ddi_create: collective; every rank passes the same per-rank layout.
  [[nodiscard]] Window create(const std::string& key,
                              const std::vector<std::size_t>& rank_elems) {
    return comm_->win_create(key, rank_elems);
  }
  /// ddi_destroy: collective.
  void destroy(Window& w) { comm_->win_free(w); }
  /// ddi_put: one-sided write (visible to peers after the next fence).
  void put(const Window& w, std::size_t offset, const double* src,
           std::size_t n) {
    comm_->win_put(w, offset, src, n);
  }
  /// ddi_get: one-sided read.
  void get(const Window& w, std::size_t offset, double* dst, std::size_t n) {
    comm_->win_get(w, offset, dst, n);
  }
  /// ddi_acc: one-sided element-atomic accumulate (+=).
  void acc(const Window& w, std::size_t offset, const double* src,
           std::size_t n) {
    comm_->win_acc(w, offset, src, n);
  }
  /// ddi_sync on a window: closes the one-sided epoch (collective).
  void fence(const Window& w) { comm_->win_fence(w); }

  [[nodiscard]] int rank() const { return comm_->rank(); }
  [[nodiscard]] int size() const { return comm_->size(); }
  [[nodiscard]] Comm& comm() { return *comm_; }

 private:
  Comm* comm_;
};

}  // namespace mc::par
