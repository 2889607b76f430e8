#pragma once
// minimpi: an in-process SPMD runtime standing in for MPI.
//
// No MPI library is available in this reproduction environment, so "ranks"
// are std::threads executing the same function ("single program"), each with
// its own rank-private allocations (attributed via MemoryTracker). The
// communication surface is exactly the verbs the Fock builders and the SCF
// driver call:
//
//   * barrier                    (implicit in DDI collectives)
//   * allreduce_sum / _max       (= ddi_gsumf, the Fock reduction; the
//                                 convergence check)
//   * dlb_next / dlb_reset       (= ddi_dlbnext, the global DLB counter)
//   * win_create/put/get/acc/fence (= ddi_create etc.: one-sided windows
//                                 over block-distributed arrays, the DDI
//                                 distributed-data layer; DESIGN.md s. 13)
//
// The replication *structure* of the real MPI code -- every rank owning
// private copies of whatever it allocates -- is preserved, which is what
// the paper's memory-footprint analysis (eqs. 3a-3c) is about. Window
// segments are the exception by design: each rank allocates (and is
// charged for) only its own block of a distributed array.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mc::par {

class Comm;

/// Barrier that can be torn down when a rank throws, so surviving ranks
/// don't deadlock: they observe the abort and unwind too.
class AbortableBarrier {
 public:
  explicit AbortableBarrier(int nranks) : nranks_(nranks) {}

  /// Blocks until all ranks arrive. Throws mc::Error if aborted.
  void arrive_and_wait();
  /// Wake all waiters with an error; subsequent waits also throw.
  void abort();

 private:
  const int nranks_;
  std::mutex mu_;
  std::condition_variable cv_;
  int waiting_ = 0;
  long generation_ = 0;
  bool aborted_ = false;
};

/// Launch `nranks` rank-threads running `body(comm)` and join them.
/// The calling thread blocks. If any rank throws, the first exception is
/// rethrown here after all ranks have unwound.
///
/// Concurrent worlds launched from *different host threads* are allowed --
/// each run_spmd gets its own SharedState, like separate MPI communicators
/// -- and are how the job-server world pool runs several Fock builds side
/// by side (src/par/world_pool.hpp). What remains forbidden is nesting: a
/// rank thread may not start another world (its collectives would
/// deadlock), which is detected and rejected per-thread.
void run_spmd(int nranks, const std::function<void(Comm&)>& body);

/// Number of SPMD worlds currently live in this process (diagnostics and
/// world-pool tests).
[[nodiscard]] int active_spmd_worlds();

namespace detail {
struct SharedState;
struct WindowState;
}

/// Handle to a one-sided window: a global array of doubles split into one
/// contiguous segment per rank (rank r owns global indices
/// [rank_base(r), rank_base(r) + rank_elems(r))). Obtained collectively
/// from Comm::win_create; cheap to copy (shared handle, like an MPI_Win).
///
/// Semantics (the MPI-3 / DDI one-sided model, reduced to what the paper's
/// algorithms need):
///   * put/get are unordered with respect to each other until the next
///     win_fence; a get is only guaranteed to observe puts separated from
///     it by a fence.
///   * acc (+=) is element-atomic against other accs, so concurrent
///     accumulates from many ranks need no fence between them -- only a
///     fence before anyone *reads* the accumulated values.
///   * In minimpi every rank lives in one process, so each transfer takes
///     the intra-node shared-memory fast path (a memcpy into the owner's
///     segment); the API still routes everything through offsets so code
///     written against it has real one-sided structure.
class Window {
 public:
  Window() = default;
  [[nodiscard]] bool valid() const { return st_ != nullptr; }
  /// Total elements across all segments.
  [[nodiscard]] std::size_t size() const;
  /// First global element index of `rank`'s segment.
  [[nodiscard]] std::size_t rank_base(int rank) const;
  /// Elements in `rank`'s segment.
  [[nodiscard]] std::size_t rank_elems(int rank) const;

 private:
  friend class Comm;
  std::shared_ptr<detail::WindowState> st_;
};

/// Per-rank communicator handle. Only valid inside run_spmd's body.
class Comm {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  /// Collective: block until every rank arrives.
  void barrier();
  /// Collective: element-wise sum of `data[0..n)` across ranks; every rank
  /// ends with the total. The reduction work itself is split across ranks
  /// in contiguous chunks (mirroring DDI's chunked gsum).
  void allreduce_sum(double* data, std::size_t n);
  /// Collective: max across ranks (convergence checks).
  double allreduce_max(double v);

  /// Shared dynamic-load-balance counter (= ddi_dlbnext): atomically
  /// returns the next global task index, starting at 0 after dlb_reset.
  long dlb_next();
  /// Collective: reset the DLB counter to zero.
  void dlb_reset();

  // -- One-sided windows (= DDI distributed arrays) --------------------

  /// Collective: create (or attach to) the window named `key`, with
  /// rank r owning `rank_elems[r]` doubles (identical vector on every
  /// rank). The first rank to arrive registers the window under `key` in
  /// the world's window registry; the others attach to it. Each rank
  /// allocates its own zero-initialized segment, so the bytes are charged
  /// to the owning rank in MemoryTracker. Returns after every segment is
  /// ready for one-sided access.
  Window win_create(const std::string& key,
                    const std::vector<std::size_t>& rank_elems);
  /// Collective: release the window. No rank may access it afterwards;
  /// the handle is invalidated.
  void win_free(Window& w);
  /// One-sided write of src[0..n) to global elements [offset, offset+n).
  /// Visible to other ranks only after the next win_fence.
  void win_put(const Window& w, std::size_t offset, const double* src,
               std::size_t n);
  /// One-sided read of global elements [offset, offset+n) into dst.
  void win_get(const Window& w, std::size_t offset, double* dst,
               std::size_t n);
  /// One-sided accumulate: window[offset+i] += src[i]. Element-atomic
  /// against concurrent accs (striped locks); see Window for the fence
  /// rules.
  void win_acc(const Window& w, std::size_t offset, const double* src,
               std::size_t n);
  /// Collective: close the current one-sided access epoch. All put/get/acc
  /// issued before the fence (by any rank) are complete and visible after
  /// it.
  void win_fence(const Window& w);

 private:
  friend void run_spmd(int, const std::function<void(Comm&)>&);
  Comm(int rank, detail::SharedState* st) : rank_(rank), st_(st) {}

  /// Barrier without the fault-injection hook: composite collectives
  /// (allreduce, dlb_reset, window create/free) synchronize through this so
  /// an injected `barrier` fault counts only explicit barrier() calls.
  void sync();

  int rank_;
  detail::SharedState* st_;
};

}  // namespace mc::par
