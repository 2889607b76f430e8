#pragma once
// Typed access annotations for the shared-memory update protocols
// (DESIGN.md section 11.2). The paper's race-freedom argument for
// Algorithm 3 is a discipline: thread-private FI/FJ accumulation, exclusive
// kl ownership of direct shared-Fock writes, and barrier-separated flush
// phases. These wrappers turn that discipline into types:
//
//   SharedReadOnly<T>  -- state published to the team before the parallel
//                         region and never mutated inside it (the density
//                         matrix). Only const access exists; assignment is
//                         deleted, so a "quick fix" that writes through it
//                         is a compile error, not a race.
//   ThreadPrivate<T>   -- one thread's lane of a team buffer (an FI/FJ
//                         column of Algorithm 3 lines 1-3). Mutation is
//                         only reachable through the owning thread's
//                         handle.
//   OwnedSlice<T>      -- a mutable window onto a shared region (the F_kl
//                         row stripe, a per-thread result slot) whose
//                         exclusivity is the protocol's claim. Writes go
//                         through add()/set(), never raw references.
//   TeamBuffer<T>      -- the whole FI/FJ lane array; hands out
//                         ThreadPrivate lanes, and peer access for the
//                         flush: read-only, or read-and-zero (take) by the
//                         thread that owns the column in the flush epoch.
//
// All types carry a `bool Checked` parameter defaulting to the translation
// unit's MC_ACCESS_CHECK macro. Unchecked instantiations are plain
// pointer/stride views -- every accessor is a one-line inline forwarder and
// sizeof() is asserted in tests, so the annotation layer is zero-overhead
// by construction. Checked instantiations additionally report every
// element access to the ShadowLedger (common/access_check.hpp), which
// verifies exclusive ownership per barrier epoch.
//
// mc-lint (tools/mc-lint) closes the loop statically: inside `#pragma omp
// parallel` regions of src/core, writes to shared state that do not go
// through these types (or another sanctioned construct) are MC-OMP-002
// findings.

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/access_check.hpp"
#include "common/error.hpp"
#include "common/tsan_annotations.hpp"

#ifndef MC_ACCESS_CHECK
#define MC_ACCESS_CHECK 0
#endif

namespace mc::acc {

/// Build-mode default for the Checked template parameters below. Evaluated
/// per translation unit, so a test TU can compile checked instantiations
/// against an unchecked library build (distinct template instantiations --
/// no ODR hazard).
inline constexpr bool kAccessChecked = MC_ACCESS_CHECK != 0;

namespace detail {
/// Zero-size stand-in for the check hooks in unchecked instantiations;
/// accepts and discards any constructor arguments so member-init lists can
/// stay uniform.
struct Empty {
  template <typename... A>
  explicit Empty(const A&...) {}
  Empty() = default;
};
}  // namespace detail

/// Build-scope handle owning (when checking is live) the ShadowLedger for
/// one rank's Fock build. Unchecked: empty. Checked but disabled at run
/// time (MC_CHECK=0): holds no ledger and every hook is a null no-op.
template <bool Checked = kAccessChecked>
class BuildChecker;

template <>
class BuildChecker<false> {
 public:
  BuildChecker(int /*rank*/, int /*nthreads*/) {}
  int region(const char* /*name*/, std::size_t /*nelems*/) { return -1; }
  [[nodiscard]] check::ShadowLedger::Thread thread(int /*tid*/) const {
    return {};
  }
  [[nodiscard]] bool active() const { return false; }
  [[nodiscard]] std::size_t violations() const { return 0; }
  /// No-op: nothing is checked in unchecked builds.
  void finalize() const {}
};

template <>
class BuildChecker<true> {
 public:
  BuildChecker(int rank, int nthreads) {
    if (check::enabled()) {
      ledger_ = std::make_unique<check::ShadowLedger>(rank, nthreads);
    }
  }
  int region(const char* name, std::size_t nelems) {
    return ledger_ ? ledger_->add_region(name, nelems) : -1;
  }
  [[nodiscard]] check::ShadowLedger::Thread thread(int tid) const {
    return ledger_ ? ledger_->thread(tid) : check::ShadowLedger::Thread();
  }
  [[nodiscard]] bool active() const { return ledger_ != nullptr; }
  [[nodiscard]] std::size_t violations() const {
    return ledger_ ? ledger_->violations() : 0;
  }
  /// Throws mc::Error on recorded ownership violations (call after the
  /// parallel region joins; minimpi's abort propagation unwinds the peer
  /// ranks). MC_CHECK_KEEP_GOING=1 downgrades to keep-running so a test
  /// can inspect the Registry instead.
  void finalize() const {
    if (ledger_ == nullptr || ledger_->violations() == 0) return;
    const char* keep = std::getenv("MC_CHECK_KEEP_GOING");
    if (keep != nullptr && keep[0] == '1') return;
    throw mc::Error("MC_CHECK ownership violation: " +
                    ledger_->first_violation().to_string());
  }

 private:
  std::unique_ptr<check::ShadowLedger> ledger_;
};

/// Per-thread protocol hook bundle: the ledger Thread handle (epoch +
/// task attribution). Unchecked: empty, all calls vanish.
template <bool Checked = kAccessChecked>
class ThreadCtx;

template <>
class ThreadCtx<false> {
 public:
  ThreadCtx() = default;
  ThreadCtx(const BuildChecker<false>& /*checker*/, int /*tid*/) {}
  void barrier() {}
  void set_task(long /*task*/) {}
  void on_write(int /*region*/, std::size_t /*index*/) {}
  void on_read(int /*region*/, std::size_t /*index*/) {}
};

template <>
class ThreadCtx<true> {
 public:
  ThreadCtx() = default;
  ThreadCtx(const BuildChecker<true>& checker, int tid)
      : th_(checker.thread(tid)) {}
  void barrier() { th_.barrier(); }
  void set_task(long task) { th_.set_task(task); }
  void on_write(int region, std::size_t index) { th_.on_write(region, index); }
  void on_read(int region, std::size_t index) { th_.on_read(region, index); }

 private:
  check::ShadowLedger::Thread th_;
};

/// An annotated team barrier: the TSan-visible `#pragma omp barrier` of
/// common/tsan_annotations.hpp plus the shadow-ledger epoch tick. Every
/// sync point of a checked protocol must advance the epoch, so the two are
/// fused in one macro (`th` is the thread's ThreadCtx).
#define MC_PROTOCOL_BARRIER(addr, th) \
  do {                                \
    MC_OMP_ANNOTATED_BARRIER(addr);   \
    (th).barrier();                   \
  } while (0)

namespace detail {
/// The per-view hook state of checked slices/lanes: the accessing thread's
/// context, the ledger region, and the view's base offset in that region.
struct ViewHook {
  ThreadCtx<true>* th = nullptr;
  int region = -1;
  std::size_t base = 0;
  ViewHook() = default;
  ViewHook(ThreadCtx<true>* t, int r, std::size_t b)
      : th(t), region(r), base(b) {}
};
}  // namespace detail

/// State the team may only read. Holds a value (or, with T = const U&, a
/// reference) fixed at construction; no non-const accessor exists and
/// assignment is deleted. Checked builds additionally trap a read of a
/// default-constructed (never set) value.
template <typename T, bool Checked = kAccessChecked>
class SharedReadOnly {
  using Stored =
      std::conditional_t<std::is_reference_v<T>,
                         const std::remove_reference_t<T>*, T>;

 public:
  SharedReadOnly() = default;
  explicit SharedReadOnly(T v) {
    if constexpr (std::is_reference_v<T>) {
      v_ = &v;
    } else {
      v_ = std::move(v);
    }
    if constexpr (Checked) set_.value = true;
  }
  SharedReadOnly(const SharedReadOnly&) = delete;
  SharedReadOnly& operator=(const SharedReadOnly&) = delete;
  SharedReadOnly(SharedReadOnly&&) noexcept = default;
  SharedReadOnly& operator=(SharedReadOnly&&) noexcept = default;

  [[nodiscard]] const std::remove_reference_t<T>& get() const {
    if constexpr (Checked) {
      MC_CHECK(set_.value, "SharedReadOnly read before init");
    }
    if constexpr (std::is_reference_v<T>) {
      return *v_;
    } else {
      return v_;
    }
  }
  /// Forward const call syntax, e.g. density(fa, fb).
  template <typename... A>
  decltype(auto) operator()(A&&... a) const {
    return get()(std::forward<A>(a)...);
  }

 private:
  struct InitFlag {
    bool value = false;
  };
  Stored v_{};
  [[no_unique_address]]
  std::conditional_t<Checked, InitFlag, detail::Empty> set_{};
};

/// A mutable window onto a shared region whose exclusivity is claimed by
/// the update protocol (the direct F_kl stripe; a per-thread result slot).
/// All mutation goes through add()/set(); there is no way to obtain a raw
/// mutable reference, so every write is visible to the shadow ledger and
/// recognizable to mc-lint.
template <typename T, bool Checked = kAccessChecked>
class OwnedSlice {
 public:
  OwnedSlice() = default;
  /// A bare view (unchecked builds, or checked code outside any region).
  OwnedSlice(T* data, std::size_t len) : p_(data), n_(len) {}
  /// Checked view: `region` as returned by BuildChecker::region, `base`
  /// the slice's element offset within that region, `th` the accessing
  /// thread's context (must outlive the slice).
  OwnedSlice(T* data, std::size_t len, ThreadCtx<Checked>* th, int region,
             std::size_t base)
      : p_(data), n_(len), hook_(th, region, base) {}

  OwnedSlice(const OwnedSlice&) = default;
  OwnedSlice(OwnedSlice&&) noexcept = default;
  /// Re-seating an owned view is how ownership would leak between
  /// protocol phases; create a fresh slice instead.
  OwnedSlice& operator=(const OwnedSlice&) = delete;
  OwnedSlice& operator=(OwnedSlice&&) = delete;

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Sub-window (e.g. one matrix row out of a whole-matrix slice).
  [[nodiscard]] OwnedSlice slice(std::size_t offset, std::size_t len) const {
    if constexpr (Checked) {
      return OwnedSlice(p_ + offset, len, hook_.th, hook_.region,
                        hook_.base + offset);
    } else {
      return OwnedSlice(p_ + offset, len);
    }
  }

  /// The sanctioned accumulation: p[i] += v, reported as a write. (Slices
  /// are views -- like std::span, a const slice still writes through; what
  /// the types forbid is obtaining a raw mutable reference.)
  void add(std::size_t i, T v) const {
    p_[i] += v;
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_write(hook_.region, hook_.base + i);
    }
  }
  void set(std::size_t i, T v) const {
    p_[i] = v;
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_write(hook_.region, hook_.base + i);
    }
  }
  [[nodiscard]] T read(std::size_t i) const {
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_read(hook_.region, hook_.base + i);
    }
    return p_[i];
  }

 private:
  T* p_ = nullptr;
  std::size_t n_ = 0;
  [[no_unique_address]]
  std::conditional_t<Checked, detail::ViewHook, detail::Empty> hook_{};
};

/// One thread's lane of a team buffer: the FI/FJ "column" of Algorithm 3.
/// Obtainable only from TeamBuffer::lane, and mutation is only reachable
/// through it -- peers reach other lanes read-only via TeamBuffer::read.
template <typename T, bool Checked = kAccessChecked>
class ThreadPrivate {
 public:
  ThreadPrivate() = default;

  void add(std::size_t i, T v) const {
    p_[i] += v;
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_write(hook_.region, hook_.base + i);
    }
  }
  [[nodiscard]] std::size_t size() const { return n_; }

 private:
  template <typename U, bool C>
  friend class TeamBuffer;

  ThreadPrivate(T* lane, std::size_t len) : p_(lane), n_(len) {}

  T* p_ = nullptr;
  std::size_t n_ = 0;
  [[no_unique_address]]
  std::conditional_t<Checked, detail::ViewHook, detail::Empty> hook_{};
};

/// The whole lane array of a team buffer (nlanes x stride elements).
/// Construct one per thread inside the region (it is a cheap view); the
/// thread mutates its own lane via lane(tid) and reaches peers via read()
/// or take() during the flush reduction.
template <typename T, bool Checked = kAccessChecked>
class TeamBuffer {
 public:
  TeamBuffer() = default;
  TeamBuffer(T* base, int nlanes, std::size_t stride, ThreadCtx<Checked>* th,
             int region)
      : base_(base), nlanes_(nlanes), stride_(stride),
        hook_(th, region, std::size_t{0}) {}

  /// The calling thread's own mutable lane. `tid` must be the tid the
  /// surrounding ThreadCtx was created with -- the protocol's "mutation
  /// only through the owner" rule; under MC_CHECK the ledger attributes
  /// every write to the handle's thread, so a borrowed lane shows up as a
  /// cross-thread conflict.
  [[nodiscard]] ThreadPrivate<T, Checked> lane(int tid) const {
    ThreadPrivate<T, Checked> lp(
        base_ + static_cast<std::size_t>(tid) * stride_, stride_);
    if constexpr (Checked) {
      lp.hook_ = detail::ViewHook(hook_.th, hook_.region,
                                  static_cast<std::size_t>(tid) * stride_);
    }
    return lp;
  }

  /// Cross-lane read (the flush reduction's sum over thread columns).
  [[nodiscard]] T read(int lane, std::size_t i) const {
    const std::size_t idx = static_cast<std::size_t>(lane) * stride_ + i;
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_read(hook_.region, idx);
    }
    return base_[idx];
  }
  /// Cross-lane read-and-zero (the column-owner flush): returns element i
  /// of `lane` and leaves T{} behind, reported as a write -- so the lane's
  /// owner may write it again only after the next barrier.
  [[nodiscard]] T take(int lane, std::size_t i) const {
    const std::size_t idx = static_cast<std::size_t>(lane) * stride_ + i;
    if constexpr (Checked) {
      if (hook_.th != nullptr) hook_.th->on_write(hook_.region, idx);
    }
    const T v = base_[idx];
    base_[idx] = T{};
    return v;
  }

  [[nodiscard]] int lanes() const { return nlanes_; }

 private:
  T* base_ = nullptr;
  int nlanes_ = 0;
  std::size_t stride_ = 0;
  [[no_unique_address]]
  std::conditional_t<Checked, detail::ViewHook, detail::Empty> hook_{};
};

}  // namespace mc::acc
