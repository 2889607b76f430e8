#pragma once
// Batched SIMD-friendly ERI pipeline (DESIGN.md section 12).
//
// A QuartetBatch accumulates surviving (ij|kl) shell quartets -- the ones
// that passed Schwarz and density-weighted screening -- and evaluates them
// in three phases per angular-momentum class (Lbra, Lket) = (l1+l2, l3+l4):
//
//   1. sweep the primitive-pair loops -- in the orientation the kernel
//      will run each quartet (orient_quartet, the rule EriEngine::compute
//      applies too) -- collecting the Boys arguments T = alpha |PQ|^2 of
//      every surviving primitive quartet into a contiguous buffer,
//   2. one boys_batch() call per class (uniform ltot, so the downward
//      recursion runs branch-free across the whole batch -- the SIMD axis),
//   3. re-run the identical loops through the shared eri_quartet_kernel,
//      consuming the Boys columns in the same order phase 1 produced them.
//
// Determinism contract: per-quartet results are bitwise identical to the
// scalar EriEngine::compute path (tested at a 1-ULP bound) because both
// paths share eri_quartet_kernel and boys/boys_batch agree element for
// element. Results are stored per entry in *discovery order*, so callers
// that scatter batch results in entry order reproduce the scalar code's
// summation order exactly -- batch capacity and flush boundaries never
// change a digested value.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ints/eri.hpp"
#include "ints/hermite.hpp"

namespace mc::ints {

/// Default batch capacity (quartets). Large enough that class groups reach
/// SIMD-profitable Boys widths on real inputs, small enough that the
/// per-thread result buffer stays cache-resident.
inline constexpr std::size_t kDefaultBatchCapacity = 64;

/// Accumulates screened shell quartets and evaluates them class-batched.
/// Not thread-safe: one instance per thread (the Fock builders hold one in
/// each worker's private state).
class QuartetBatch {
 public:
  struct Entry {
    std::uint32_t si = 0, sj = 0, sk = 0, sl = 0;  ///< caller shell indices
    std::uint64_t tag = 0;     ///< caller-defined (e.g. kl task id)
    std::size_t offset = 0;    ///< into the results buffer
    std::size_t size = 0;      ///< doubles in this quartet's batch
  };

  explicit QuartetBatch(const EriEngine& eng,
                        std::size_t capacity = kDefaultBatchCapacity);

  /// Queue one quartet (must not be full). `tag` rides along untouched for
  /// the caller's digest routing.
  void add(std::size_t si, std::size_t sj, std::size_t sk, std::size_t sl,
           std::uint64_t tag = 0);

  /// Evaluate every queued quartet (class-grouped Boys batching). After
  /// this, result(i) is valid for each entry i.
  void evaluate();

  /// Caller-orientation [i][j][k][l] batch of entry `idx` (post-evaluate).
  [[nodiscard]] const double* result(std::size_t idx) const {
    return results_.data() + entries_[idx].offset;
  }

  [[nodiscard]] const std::vector<Entry>& quartets() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] bool full() const { return entries_.size() >= capacity_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Drop all entries; keeps buffers for reuse.
  void clear();

 private:
  void evaluate_class(int lbra, int lket,
                      const std::vector<std::uint32_t>& idxs);

  const EriEngine* eng_;
  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::vector<double> results_;
  std::size_t results_size_ = 0;

  // Class-group buckets, keyed by the caller's class Lbra * kClassDim +
  // Lket; used_keys_ tracks which buckets are non-empty so clear() stays
  // O(classes used).
  static constexpr int kClassDim = 9;  // l1+l2 <= 8
  std::array<std::vector<std::uint32_t>, kClassDim * kClassDim> buckets_;
  std::vector<int> used_keys_;

  // Evaluation scratch (reused across flushes, no hot-loop allocations;
  // sized grow-only, so a slot past the current group's count is stale).
  std::vector<OrientedQuartet> oriented_;  ///< per entry
  std::vector<double> t_buf_;   ///< phase-1 Boys arguments
  std::vector<double> fm_buf_;  ///< boys_batch output, SoA [m][element]
  std::vector<std::uint8_t> surv_;  ///< phase-1 per-(bp,kp) prescreen verdict
  std::vector<double> geom_buf_;    ///< phase-1 geometry per survivor
  std::vector<double> g_;       ///< kernel G accumulator (compact triangle)
  std::vector<double> rmat_;    ///< gathered R matrix [ket tri][bra tri]
  std::vector<double> tmp_;     ///< canonical-orientation staging
  RTable r_;
};

}  // namespace mc::ints
