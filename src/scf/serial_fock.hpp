#pragma once
// Reference Fock builders:
//  * SerialFockBuilder -- the canonical screened quartet loop on one
//    thread. The correctness anchor every parallel algorithm is tested
//    against, and the per-core work model the simulator calibrates on.
//    Iterates the Screening's precomputed Schwarz-sorted pair list, which
//    is exactly the order a single-rank FockBuilderMpi claims pairs in --
//    keeping the two bit-identical.
//  * BruteForceFockBuilder -- O(N^4) loop over *all* ordered quartets with
//    no permutational symmetry and no screening; definitionally correct,
//    used to validate the skeleton scatter itself on tiny systems.

#include "ints/eri_batch.hpp"
#include "scf/fock_builder.hpp"

namespace mc::scf {

/// Default quartet-batch capacity of the serial builder's batched ERI
/// pipeline.
inline constexpr std::size_t kSerialFockBatchCapacity =
    ints::kDefaultBatchCapacity;

class SerialFockBuilder : public FockBuilder {
 public:
  /// `batch_capacity` sizes the quartet batch of the SIMD-friendly batched
  /// ERI pipeline (DESIGN.md section 12); 0 selects the scalar reference
  /// path, which evaluates each surviving quartet with EriEngine::compute.
  /// Both paths screen through the same QuartetCascade and produce
  /// bitwise-identical G.
  SerialFockBuilder(const ints::EriEngine& eri, const ints::Screening& screen,
                    std::size_t batch_capacity = kSerialFockBatchCapacity)
      : FockBuilder(screen), eri_(&eri), batch_capacity_(batch_capacity) {}

  [[nodiscard]] std::string name() const override { return "serial"; }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const FockContext& ctx) override;

 private:
  const ints::EriEngine* eri_;
  std::size_t batch_capacity_ = kSerialFockBatchCapacity;
};

class BruteForceFockBuilder : public FockBuilder {
 public:
  explicit BruteForceFockBuilder(const ints::EriEngine& eri) : eri_(&eri) {}

  [[nodiscard]] std::string name() const override { return "brute-force"; }
  using FockBuilder::build;
  void build(const la::Matrix& density, la::Matrix& g,
             const FockContext& ctx) override;

 private:
  const ints::EriEngine* eri_;
};

}  // namespace mc::scf
