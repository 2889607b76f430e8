#include "par/runtime.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <exception>
#include <map>
#include <thread>

#include "common/error.hpp"
#include "common/memory_tracker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "par/fault_injection.hpp"

namespace mc::par {

void AbortableBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lk(mu_);
  if (aborted_) throw mc::Error("minimpi: job aborted (peer rank failed)");
  const long gen = generation_;
  if (++waiting_ == nranks_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return;
  }
  cv_.wait(lk, [&] { return generation_ != gen || aborted_; });
  // Only fail if this barrier never completed. If the generation advanced,
  // every rank arrived and the synchronization is valid even when an abort
  // lands immediately afterwards; the entry check above catches the abort
  // at the next collective.
  if (generation_ == gen) {
    throw mc::Error("minimpi: job aborted (peer rank failed)");
  }
}

void AbortableBarrier::abort() {
  std::lock_guard<std::mutex> lk(mu_);
  aborted_ = true;
  cv_.notify_all();
}

namespace detail {

struct WindowState {
  WindowState(std::string key_, const std::vector<std::size_t>& elems)
      : key(std::move(key_)),
        rank_elems(elems),
        rank_base(elems.size() + 1, 0),
        segments(elems.size()) {
    for (std::size_t r = 0; r < elems.size(); ++r) {
      rank_base[r + 1] = rank_base[r] + elems[r];
    }
  }

  [[nodiscard]] int owner_of(std::size_t index) const {
    // rank_base is the prefix-sum fence list [0, e0, e0+e1, ...]; the first
    // entry strictly greater than `index` is the owner's upper fence.
    return static_cast<int>(std::upper_bound(rank_base.begin(),
                                             rank_base.end(), index) -
                            rank_base.begin()) -
           1;
  }

  std::string key;                     ///< registry key (for win_free)
  std::vector<std::size_t> rank_elems; ///< segment sizes, indexed by rank
  std::vector<std::size_t> rank_base;  ///< prefix sums, size nranks+1
  /// Per-rank segments; segments[r] is allocated by rank r inside
  /// win_create so MemoryTracker charges the bytes to the owning rank.
  std::vector<TrackedBuffer> segments;

  /// Striped accumulate locks: win_acc element-atomicity without a
  /// per-window giant lock. Concurrent accs to regions more than
  /// kStripeElems apart usually take different stripes.
  static constexpr std::size_t kStripeElems = 2048;
  static constexpr std::size_t kStripes = 64;
  std::array<std::mutex, kStripes> acc_mu;
  [[nodiscard]] std::mutex& stripe(std::size_t global_index) {
    return acc_mu[(global_index / kStripeElems) % kStripes];
  }
};

struct SharedState {
  explicit SharedState(int n)
      : nranks(n), barrier(n), contrib(static_cast<std::size_t>(n), nullptr) {}

  int nranks;
  AbortableBarrier barrier;

  // allreduce staging.
  std::vector<double*> contrib;
  std::vector<double> scratch;

  // allreduce_max staging.
  std::atomic<std::uint64_t> max_bits{0};

  std::atomic<long> dlb_counter{0};

  // Window registry: win_create attaches every rank to one WindowState
  // per key; win_free erases the entry.
  std::mutex windows_mu;
  std::map<std::string, std::shared_ptr<WindowState>> windows;

  std::mutex err_mu;
  std::exception_ptr first_error;
};

}  // namespace detail

namespace {
// Live SPMD worlds in this process. Historically exactly one job could be
// active at a time (one MPI_COMM_WORLD); the job-server world pool
// (src/par/world_pool.hpp) runs several worlds side by side, each the
// analogue of a separate MPI communicator with its own SharedState. What
// stays forbidden is *nesting*: a rank thread launching another world
// would deadlock its own collectives, so that is detected per-thread.
std::atomic<int> g_active_worlds{0};
thread_local bool t_inside_spmd = false;
}  // namespace

int active_spmd_worlds() { return g_active_worlds.load(); }

int Comm::size() const { return st_->nranks; }

void Comm::sync() { st_->barrier.arrive_and_wait(); }

std::size_t Window::size() const { return st_->rank_base.back(); }

std::size_t Window::rank_base(int rank) const {
  return st_->rank_base[static_cast<std::size_t>(rank)];
}

std::size_t Window::rank_elems(int rank) const {
  return st_->rank_elems[static_cast<std::size_t>(rank)];
}

Window Comm::win_create(const std::string& key,
                        const std::vector<std::size_t>& rank_elems) {
  MC_CHECK(rank_elems.size() == static_cast<std::size_t>(st_->nranks),
           "win_create: rank_elems must have one entry per rank");
  Window w;
  {
    std::lock_guard<std::mutex> lk(st_->windows_mu);
    std::shared_ptr<detail::WindowState>& entry = st_->windows[key];
    if (!entry) entry = std::make_shared<detail::WindowState>(key, rank_elems);
    w.st_ = entry;
  }
  detail::WindowState& ws = *w.st_;
  MC_CHECK(ws.rank_elems == rank_elems,
           "win_create: ranks disagree on the window layout for '" + key +
               "'");
  // Each rank allocates its own zeroed segment on its own thread, so
  // MemoryTracker attributes the bytes to the owning rank -- the
  // distributed-footprint accounting the memory benchmarks assert on.
  ws.segments[static_cast<std::size_t>(rank_)] = TrackedBuffer(
      "ddi-window", rank_elems[static_cast<std::size_t>(rank_)]);
  sync();  // every segment allocated before any one-sided access
  return w;
}

void Comm::win_free(Window& w) {
  MC_CHECK(w.valid(), "win_free on an invalid window");
  sync();  // all one-sided access complete
  // Release this rank's segment eagerly: the WindowState itself lives until
  // the slowest rank drops its handle, and the per-rank tracked bytes must
  // reach zero when win_free returns, not when a peer gets around to it.
  w.st_->segments[static_cast<std::size_t>(rank_)] = TrackedBuffer();
  // Single-rank erase + barrier: if every rank erased, a fast rank could
  // re-create the key and have it yanked by a slow peer's erase.
  if (rank_ == 0) {
    std::lock_guard<std::mutex> lk(st_->windows_mu);
    st_->windows.erase(w.st_->key);
  }
  sync();  // entry gone before the key can be reused
  w.st_.reset();
}

void Comm::win_put(const Window& w, std::size_t offset, const double* src,
                   std::size_t n) {
  obs::ScopedChannelTimer ct(obs::Channel::kPut, rank_);
  maybe_inject_fault(rank_, FaultOp::kWinPut);
  MC_CHECK(w.valid(), "win_put on an invalid window");
  detail::WindowState& ws = *w.st_;
  MC_CHECK(offset + n <= ws.rank_base.back(), "win_put out of range");
  // Shared-memory fast path (all minimpi ranks are intra-node): a straight
  // memcpy into the owner's segment, split only at segment boundaries.
  // Visibility to other ranks is ordered by win_fence.
  std::size_t done = 0;
  while (done < n) {
    const int owner = ws.owner_of(offset + done);
    const std::size_t local =
        offset + done - ws.rank_base[static_cast<std::size_t>(owner)];
    const std::size_t chunk = std::min(
        n - done,
        ws.rank_elems[static_cast<std::size_t>(owner)] - local);
    std::memcpy(ws.segments[static_cast<std::size_t>(owner)].data() + local,
                src + done, chunk * sizeof(double));
    done += chunk;
  }
}

void Comm::win_get(const Window& w, std::size_t offset, double* dst,
                   std::size_t n) {
  obs::ScopedChannelTimer ct(obs::Channel::kGet, rank_);
  maybe_inject_fault(rank_, FaultOp::kWinGet);
  MC_CHECK(w.valid(), "win_get on an invalid window");
  detail::WindowState& ws = *w.st_;
  MC_CHECK(offset + n <= ws.rank_base.back(), "win_get out of range");
  std::size_t done = 0;
  while (done < n) {
    const int owner = ws.owner_of(offset + done);
    const std::size_t local =
        offset + done - ws.rank_base[static_cast<std::size_t>(owner)];
    const std::size_t chunk = std::min(
        n - done,
        ws.rank_elems[static_cast<std::size_t>(owner)] - local);
    std::memcpy(dst + done,
                ws.segments[static_cast<std::size_t>(owner)].data() + local,
                chunk * sizeof(double));
    done += chunk;
  }
}

void Comm::win_acc(const Window& w, std::size_t offset, const double* src,
                   std::size_t n) {
  obs::ScopedChannelTimer ct(obs::Channel::kAcc, rank_);
  maybe_inject_fault(rank_, FaultOp::kWinAcc);
  MC_CHECK(w.valid(), "win_acc on an invalid window");
  detail::WindowState& ws = *w.st_;
  MC_CHECK(offset + n <= ws.rank_base.back(), "win_acc out of range");
  // Walk the range in pieces bounded by both the lock-stripe width and the
  // owning segment, taking one stripe lock at a time (never two locks held
  // at once, so concurrent accs cannot deadlock).
  std::size_t i = 0;
  while (i < n) {
    const std::size_t g0 = offset + i;
    const int owner = ws.owner_of(g0);
    const std::size_t stripe_end =
        (g0 / detail::WindowState::kStripeElems + 1) *
        detail::WindowState::kStripeElems;
    const std::size_t end =
        std::min({offset + n, stripe_end,
                  ws.rank_base[static_cast<std::size_t>(owner) + 1]});
    double* dst =
        ws.segments[static_cast<std::size_t>(owner)].data() +
        (g0 - ws.rank_base[static_cast<std::size_t>(owner)]);
    std::lock_guard<std::mutex> lk(ws.stripe(g0));
    for (std::size_t k = 0; k < end - g0; ++k) dst[k] += src[i + k];
    i += end - g0;
  }
}

void Comm::win_fence(const Window& w) {
  obs::ScopedChannelTimer ct(obs::Channel::kBarrier, rank_);
  maybe_inject_fault(rank_, FaultOp::kWinFence);
  MC_CHECK(w.valid(), "win_fence on an invalid window");
  sync();
}

void Comm::barrier() {
  obs::ScopedChannelTimer ct(obs::Channel::kBarrier, rank_);
  maybe_inject_fault(rank_, FaultOp::kBarrier);
  sync();
}

void Comm::allreduce_sum(double* data, std::size_t n) {
  obs::ScopedChannelTimer ct(obs::Channel::kGsum, rank_);
  MC_OBS_TRACE("gsumf");
  maybe_inject_fault(rank_, FaultOp::kAllreduceSum);
  detail::SharedState& st = *st_;
  st.contrib[static_cast<std::size_t>(rank_)] = data;
  if (rank_ == 0) {
    st.scratch.assign(n, 0.0);
  }
  sync();  // contributions + scratch visible

  // Chunked parallel reduction: rank r sums its contiguous slice across all
  // ranks' buffers (mirrors DDI's chunked gsum and the paper's row-chunked
  // buffer flush in Figure 1B).
  const std::size_t per =
      (n + static_cast<std::size_t>(st.nranks) - 1) /
      static_cast<std::size_t>(st.nranks);
  const std::size_t lo =
      std::min(n, per * static_cast<std::size_t>(rank_));
  const std::size_t hi = std::min(n, lo + per);
  for (std::size_t i = lo; i < hi; ++i) {
    double s = 0.0;
    for (int r = 0; r < st.nranks; ++r) s += st.contrib[static_cast<std::size_t>(r)][i];
    st.scratch[i] = s;
  }
  sync();  // all slices reduced

  std::memcpy(data, st.scratch.data(), n * sizeof(double));
  sync();  // everyone copied out before scratch is reused
}

double Comm::allreduce_max(double v) {
  obs::ScopedChannelTimer ct(obs::Channel::kGsum, rank_);
  maybe_inject_fault(rank_, FaultOp::kAllreduceMax);
  detail::SharedState& st = *st_;
  // Entry barrier: guarantees every rank has consumed the previous call's
  // result before rank 0 re-initializes the shared accumulator.
  sync();
  if (rank_ == 0) st.max_bits.store(0, std::memory_order_relaxed);
  sync();
  // Monotone CAS-max on the bit pattern (valid for non-negative doubles;
  // shift negative inputs by taking max against 0 first is NOT done --
  // callers use this for norms/errors which are >= 0).
  MC_CHECK(v >= 0.0, "allreduce_max supports non-negative values");
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  std::uint64_t cur = st.max_bits.load(std::memory_order_relaxed);
  while (bits > cur &&
         !st.max_bits.compare_exchange_weak(cur, bits,
                                            std::memory_order_relaxed)) {
  }
  sync();
  const std::uint64_t out_bits = st.max_bits.load(std::memory_order_relaxed);
  double out;
  std::memcpy(&out, &out_bits, sizeof(out));
  return out;
}

long Comm::dlb_next() {
  // The shared-counter claim is the whole DLB cost in minimpi (no message
  // round-trip); attribute it to the DLB-wait channel anyway so the metric
  // has the same meaning it would have over real DDI.
  obs::ScopedChannelTimer ct(obs::Channel::kDlbWait, rank_);
  return st_->dlb_counter.fetch_add(1, std::memory_order_relaxed);
}

void Comm::dlb_reset() {
  maybe_inject_fault(rank_, FaultOp::kDlbReset);
  sync();
  if (rank_ == 0) st_->dlb_counter.store(0, std::memory_order_relaxed);
  sync();
}

void run_spmd(int nranks, const std::function<void(Comm&)>& body) {
  MC_CHECK(nranks >= 1, "run_spmd needs at least one rank");
  install_env_fault_plan_once();
  MC_CHECK(!t_inside_spmd,
           "run_spmd: called from inside a rank body (nested SPMD not "
           "supported)");
  g_active_worlds.fetch_add(1);
  // RAII: release the world slot on *every* exit path. Before this guard, an
  // exception between the acquire above and a manual decrement (e.g. a
  // std::thread constructor failing) left the counter wedged forever.
  struct JobGuard {
    ~JobGuard() { g_active_worlds.fetch_sub(1); }
  } job_guard;

  detail::SharedState st(nranks);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));

  const auto rank_main = [&st, &body](int r) {
      t_inside_spmd = true;  // nesting guard; dies with the rank thread
      MemoryTracker::set_current_rank(r);
      try {
        Comm comm(r, &st);
        body(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lk(st.err_mu);
          if (!st.first_error) st.first_error = std::current_exception();
        }
        st.barrier.abort();
      }
      MemoryTracker::set_current_rank(-1);
  };

  for (int r = 0; r < nranks; ++r) {
    try {
      maybe_inject_fault(r, FaultOp::kSpawn);
      threads.emplace_back(rank_main, r);
    } catch (...) {
      // Thread creation failed partway: the already-running ranks would
      // block forever in a barrier sized for nranks. Tear the job down and
      // surface the spawn failure (the survivors' abort errors are
      // secondary), leaving the job slot usable again via job_guard.
      st.barrier.abort();
      for (auto& t : threads) t.join();
      throw;
    }
  }
  for (auto& t : threads) t.join();

  if (st.first_error) std::rethrow_exception(st.first_error);
}

}  // namespace mc::par
