#pragma once
// The cross-builder differential check: one FuzzSample in, every Fock
// builder out, all answers compared pairwise against the serial scalar
// reference under the ULP-separation contract of fuzz/ulp_compare.hpp,
// plus the screening-counter and 8-fold symmetry identities (DESIGN.md
// section 14). No gtest: failures come back as strings so the fuzz and
// soak mains can attach replay seeds and keep going.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/molecule_generator.hpp"

namespace mc::fuzz {

struct HarnessOptions {
  /// Rank counts are drawn from [1, max_ranks]; at least one multi-rank
  /// configuration is forced per algorithm.
  int max_ranks = 4;
  /// ULP budget for parallel-vs-serial agreement (core::kMaxSkeletonUlps).
  std::uint64_t max_ulps = 4096;
  /// Run the 8-fold permutational-symmetry audit on sampled quartets.
  bool symmetry_audit = true;
  /// Engine configurations drawn per algorithm (>= 1; the first is forced
  /// multi-rank).
  int configs_per_algorithm = 2;
};

/// Everything the harness concluded about one sample. `failures` is empty
/// on success; each entry is self-contained (engine label + what broke).
struct SampleReport {
  FuzzSample sample;
  std::size_t nbf = 0;
  std::size_t nshells = 0;
  /// Quartets a full build of the core guess computes: the static
  /// survivors, one per symmetry orbit for a symmetric sample.
  std::size_t survivors = 0;
  std::size_t engines_run = 0;   ///< builder configurations exercised
  std::uint64_t worst_ulps = 0;  ///< worst passing ULP gap seen
  std::vector<std::string> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// One JSONL record (the sample log line).
  [[nodiscard]] std::string json() const;
};

class DifferentialHarness {
 public:
  explicit DifferentialHarness(HarnessOptions opt = {}) : opt_(opt) {}

  /// Run the full differential sweep on one sample. Exceptions from any
  /// builder are caught and reported as failures, not propagated: a crash
  /// in one engine must not hide what the others say.
  [[nodiscard]] SampleReport run(const FuzzSample& sample) const;

 private:
  HarnessOptions opt_;
};

}  // namespace mc::fuzz
