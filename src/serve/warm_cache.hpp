#pragma once
// Warm caches of the SCF job server (DESIGN.md section 15.3), keyed by
// (molecule, basis) fingerprints:
//
//  * SetupCache  -- the expensive geometry-derived setup (BasisSet,
//    EriEngine, Schwarz Screening with its sorted pair lists). Immutable
//    after construction and read-only during Fock builds, so one cached
//    instance backs any number of concurrent worlds. Key includes the
//    Schwarz threshold: a different cutoff is a different pair list.
//  * DensityCache -- previously converged densities. A repeat
//    (molecule, basis, charge) request is seeded from the cached density
//    instead of the atomic start a cold job takes, converging in strictly
//    fewer iterations to the same fixed point (the SCF answer does not
//    depend on the starting guess; tests/test_serve.cpp pins this).
//
// Fingerprints hash the exact double bit patterns (coordinates,
// thresholds), so "the same molecule" means bitwise the same geometry --
// two jitters of a fuzz template never alias.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "ints/screening.hpp"
#include "la/matrix.hpp"

namespace mc::serve {

/// Order-sensitive 64-bit fingerprint of atom numbers and coordinate bit
/// patterns (splitmix64-style mixing; deterministic across processes).
[[nodiscard]] std::uint64_t molecule_fingerprint(const chem::Molecule& mol);

/// Key of the setup cache: molecule + per-atom basis assignment + Schwarz
/// threshold. A uniform `basis` with empty `basis_per_atom` and the
/// equivalent all-same per-atom vector produce different keys by design --
/// callers normalize (the server always passes what the job spec carried).
[[nodiscard]] std::uint64_t setup_fingerprint(
    const chem::Molecule& mol, const std::string& basis,
    const std::vector<std::string>& basis_per_atom, double schwarz_threshold);

/// Key of the density cache: the setup key refined by net charge (the
/// converged density depends on the electron count).
[[nodiscard]] std::uint64_t density_fingerprint(std::uint64_t setup_key,
                                                int charge);

/// The shared immutable per-(molecule, basis) setup. EriEngine holds no
/// shared mutable state and Screening is read-only after construction, so
/// concurrent worlds may use one instance freely.
struct ScfSetup {
  std::shared_ptr<const basis::BasisSet> basis_set;
  std::shared_ptr<const ints::EriEngine> eri;
  std::shared_ptr<const ints::Screening> screening;
};

/// Build a fresh setup (cache miss path). The EriEngine references the
/// BasisSet and the Screening references the EriEngine, so the shared_ptrs
/// keep the whole chain alive together.
[[nodiscard]] ScfSetup build_setup(
    const chem::Molecule& mol, const std::string& basis,
    const std::vector<std::string>& basis_per_atom, double schwarz_threshold);

/// A cached converged state: the warm-start seed plus the bookkeeping the
/// telemetry wants to compare against.
struct DensitySeed {
  la::Matrix density;
  double energy = 0.0;
  int iterations = 0;  ///< iterations the producing (cold) run took
};

/// Thread-safe LRU cache of shared immutable values. capacity 0 disables
/// caching entirely (every get misses, put is a no-op) -- the knob for
/// cold-baseline benchmarking.
template <typename V>
class WarmCache {
 public:
  explicit WarmCache(std::size_t capacity) : capacity_(capacity) {}

  /// Hit: refresh LRU position and return the value. Miss: nullptr.
  /// Both update the hit/miss counters.
  std::shared_ptr<const V> get(std::uint64_t key) {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->second;
  }

  /// Insert (or refresh) `key`; evicts the least-recently-used entry past
  /// capacity. Re-putting an existing key replaces its value.
  void put(std::uint64_t key, std::shared_ptr<const V> value) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(value));
    index_[key] = lru_.begin();
    if (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return lru_.size();
  }
  [[nodiscard]] long hits() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hits_;
  }
  [[nodiscard]] long misses() const {
    std::lock_guard<std::mutex> lk(mu_);
    return misses_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::pair<std::uint64_t, std::shared_ptr<const V>>> lru_;
  std::unordered_map<
      std::uint64_t,
      typename std::list<
          std::pair<std::uint64_t, std::shared_ptr<const V>>>::iterator>
      index_;
  long hits_ = 0;
  long misses_ = 0;
};

using SetupCache = WarmCache<ScfSetup>;
using DensityCache = WarmCache<DensitySeed>;

}  // namespace mc::serve
