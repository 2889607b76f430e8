#pragma once
// Conventional (stored-integral) mode: compute every Schwarz-surviving
// unique ERI once and keep it in memory, then replay it for each Fock
// build. GAMESS supports both conventional and direct SCF; the paper
// benchmarks direct mode (integrals recomputed per iteration), and this
// module provides the conventional counterpart plus the in-memory AO
// tensor that the MP2 transformation consumes.
//
// Storage: unique values under 8-fold permutational symmetry, addressed by
// the composite index pq(rs) with pq = p(p+1)/2 + q (p >= q, pq >= rs) --
// the textbook packed scheme. Feasible for the functional-scale systems
// this host runs (N ~ tens of basis functions).

#include <cstddef>
#include <vector>

#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "scf/fock_builder.hpp"

namespace mc::scf {

class AoIntegralTensor {
 public:
  /// Computes and stores all unique (pq|rs). Memory: N^4/8 doubles; the
  /// constructor refuses absurd sizes (> max_doubles) so a typo cannot
  /// allocate the machine away.
  AoIntegralTensor(const ints::EriEngine& eri, const ints::Screening& screen,
                   std::size_t max_doubles = 500'000'000);

  /// (pq|rs) by full basis-function indices, any order.
  [[nodiscard]] double operator()(std::size_t p, std::size_t q,
                                  std::size_t r, std::size_t s) const {
    return values_[composite(pair_index(p, q), pair_index(r, s))];
  }

  [[nodiscard]] std::size_t nbf() const { return nbf_; }

  static std::size_t pair_index(std::size_t p, std::size_t q) {
    return (p >= q) ? p * (p + 1) / 2 + q : q * (q + 1) / 2 + p;
  }
  static std::size_t composite(std::size_t pq, std::size_t rs) {
    return (pq >= rs) ? pq * (pq + 1) / 2 + rs : rs * (rs + 1) / 2 + pq;
  }

 private:
  std::size_t nbf_ = 0;
  std::vector<double> values_;
};

/// Fock builder replaying the stored tensor (conventional SCF). Identical
/// results to the direct SerialFockBuilder; trades memory for skipping the
/// per-iteration integral recomputation.
class StoredFockBuilder : public FockBuilder {
 public:
  explicit StoredFockBuilder(const AoIntegralTensor& tensor,
                             const basis::BasisSet& bs)
      : tensor_(&tensor), bs_(&bs) {}

  [[nodiscard]] std::string name() const override { return "conventional"; }
  using FockBuilder::build;
  /// The stored tensor replay is already integral-free per iteration, so a
  /// weighted/incremental context is accepted but not used for screening.
  void build(const la::Matrix& density, la::Matrix& g,
             const FockContext& ctx) override;

 private:
  const AoIntegralTensor* tensor_;
  const basis::BasisSet* bs_;
};

}  // namespace mc::scf
