#include "workloads.hpp"

#include <cmath>
#include <limits>
#include <numeric>

#include "chem/builders.hpp"
#include "common/error.hpp"

namespace bench {
namespace {

using mc::core::ScfAlgorithm;

/// splitmix64 finalizer: a stateless hash, so job i of a seed is the same
/// whichever client thread generates it.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  return mix(mix(mix(seed) ^ a) ^ b);
}

/// Uniform double in [-1, 1).
double unit_signed(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

}  // namespace

const std::vector<AlgSpec>& algorithms() {
  static const std::vector<AlgSpec> algs = {
      {"mpi", ScfAlgorithm::kMpiOnly, kWorkers, 1},
      {"private", ScfAlgorithm::kPrivateFock, 1, kWorkers},
      {"shared", ScfAlgorithm::kSharedFock, 1, kWorkers},
      {"dist", ScfAlgorithm::kDistFock, kWorkers, 1},
  };
  return algs;
}

mc::core::ParallelScfConfig scf_config(const AlgSpec& alg,
                                       const MoleculeSpec& spec) {
  mc::core::ParallelScfConfig cfg;
  cfg.algorithm = alg.algorithm;
  cfg.nranks = alg.nranks;
  cfg.nthreads = alg.nthreads;
  cfg.basis = spec.basis;
  return cfg;
}

ScfWorkload scf_workload(const std::string& name, bool smoke) {
  namespace b = mc::chem::builders;
  const double unpinned = std::numeric_limits<double>::quiet_NaN();
  if (smoke) return {{"water/STO-3G", b::water(), "STO-3G"}, unpinned};
  if (name == "ethane-631gd") {
    return {{"ethane/6-31G(d)", b::alkane(2), "6-31G(d)"}, -79.0809637824};
  }
  if (name == "pentane-sto3g") {
    return {{"pentane/STO-3G", b::alkane(5), "STO-3G"}, -193.8092803927};
  }
  MC_CHECK(false, "unknown SCF workload: " + name);
  return {};
}

ServeCatalogue serve_catalogue(bool smoke) {
  namespace b = mc::chem::builders;
  if (smoke) {
    return {{{"water/STO-3G", b::water(), "STO-3G"},
             {"methane/STO-3G", b::methane(), "STO-3G"}},
            2};
  }
  return {{
              {"water/6-31G(d)", b::water(), "6-31G(d)"},
              {"water/STO-3G", b::water(), "STO-3G"},
              {"methane/STO-3G", b::methane(), "STO-3G"},
              {"methane/6-31G(d)", b::methane(), "6-31G(d)"},
              {"ethane/STO-3G", b::alkane(2), "STO-3G"},
              {"propane/STO-3G", b::alkane(3), "STO-3G"},
              {"ethane/6-31G(d)", b::alkane(2), "6-31G(d)"},
              {"benzene/STO-3G", b::benzene(), "STO-3G"},
          },
          6};
}

mc::serve::JobSpec serve_job_spec(const MoleculeSpec& spec) {
  mc::serve::JobSpec job;
  job.tenant = "bench";
  job.molecule_label = spec.label;
  job.mol = spec.mol;
  job.basis = spec.basis;
  job.nranks = 2;
  return job;
}

GeneratedJob serve_job(std::uint64_t seed, std::size_t i,
                       const ServeCatalogue& catalogue) {
  const std::size_t block = i / 4;
  const std::size_t pos = i % 4;
  const std::size_t jitter_pos = mix(seed, block, 1) % 4;

  // Entry k % n of a seeded permutation of entries [0, n), one permutation
  // per n draws, so every entry recurs equally often in its stream.
  auto draw = [&](std::size_t k, std::size_t n, std::uint64_t stream) {
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t m = n; m > 1; --m) {
      std::swap(perm[m - 1], perm[mix(seed, k / n, stream + m) % m]);
    }
    return perm[k % n];
  };

  GeneratedJob g;
  if (pos == jitter_pos) {
    g.repeat = false;
    g.catalogue_index = draw(block, catalogue.jittered, 1000);
    const MoleculeSpec& base = catalogue.entries[g.catalogue_index];
    mc::chem::Molecule mol;
    for (std::size_t a = 0; a < base.mol.natoms(); ++a) {
      const mc::chem::Atom& at = base.mol.atom(a);
      double xyz[3];
      for (std::size_t c = 0; c < 3; ++c) {
        // +-0.05 bohr: a new geometry for both caches, an easy SCF.
        xyz[c] = at.xyz[c] + 0.05 * unit_signed(mix(seed, i, 3 * a + c + 3));
      }
      mol.add_atom(at.z, xyz[0], xyz[1], xyz[2]);
    }
    g.spec = serve_job_spec({base.label + "~jitter", mol, base.basis});
    return g;
  }

  g.catalogue_index = draw(3 * block + (pos < jitter_pos ? pos : pos - 1),
                           catalogue.entries.size(), 0);
  g.spec = serve_job_spec(catalogue.entries[g.catalogue_index]);
  return g;
}

}  // namespace bench
