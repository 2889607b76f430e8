// mchf -- the command-line driver (this project's equivalent of the
// gamess.00.x binary from the paper's artifact appendix).
//
//   mchf [options]
//     --xyz FILE          geometry from an XYZ file (Angstrom)
//     --molecule NAME     built-in: water methane benzene h2 graphene:N
//     --basis NAME        STO-3G | 6-31G | 6-31G(d) | 6-31G(d,p)
//     --method M          rhf | uhf | mp2          (default rhf)
//     --algorithm A       serial | mpi | private | shared | dist  (default serial)
//     --ranks R           minimpi ranks            (default 1)
//     --threads T         OpenMP threads per rank  (default 1)
//     --charge Q          net charge               (default 0)
//     --multiplicity M    2S+1 for UHF             (default 1)
//     --guess-mix         break alpha/beta symmetry in the UHF guess
//     --profile PATH      write PATH.metrics.jsonl (one JSON record per
//                         SCF iteration) and PATH.trace.json (chrome
//                         trace; open in chrome://tracing or Perfetto)
//
// Examples:
//   mchf --molecule water --basis 6-31G(d) --method mp2
//   mchf --molecule graphene:8 --algorithm shared --ranks 2 --threads 2
//   mchf --xyz caffeine.xyz --basis STO-3G

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "chem/element.hpp"
#include "chem/xyz_io.hpp"
#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/parallel_scf.hpp"
#include "ints/one_electron.hpp"
#include "ints/point_group.hpp"
#include "scf/mp2.hpp"
#include "scf/properties.hpp"
#include "scf/serial_fock.hpp"
#include "scf/stored_integrals.hpp"
#include "scf/uhf.hpp"

using namespace mc;

namespace {

struct Args {
  std::string xyz;
  std::string molecule = "water";
  std::string basis = "STO-3G";
  std::string method = "rhf";
  std::string algorithm = "serial";
  int ranks = 1;
  int threads = 1;
  int charge = 0;
  int multiplicity = 1;
  bool guess_mix = false;
  std::string profile;
};

[[noreturn]] void usage_and_exit() {
  std::printf(
      "usage: mchf [--xyz FILE | --molecule NAME] [--basis B] "
      "[--method rhf|uhf|mp2]\n"
      "            [--algorithm serial|mpi|private|shared|dist] [--ranks R] "
      "[--threads T]\n"
      "            [--charge Q] [--multiplicity M] [--guess-mix]\n"
      "            [--profile PATH]\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit();
      return argv[++i];
    };
    if (flag == "--xyz") a.xyz = value();
    else if (flag == "--molecule") a.molecule = value();
    else if (flag == "--basis") a.basis = value();
    else if (flag == "--method") a.method = value();
    else if (flag == "--algorithm") a.algorithm = value();
    else if (flag == "--ranks") a.ranks = std::atoi(value().c_str());
    else if (flag == "--threads") a.threads = std::atoi(value().c_str());
    else if (flag == "--charge") a.charge = std::atoi(value().c_str());
    else if (flag == "--multiplicity")
      a.multiplicity = std::atoi(value().c_str());
    else if (flag == "--guess-mix") a.guess_mix = true;
    else if (flag == "--profile") a.profile = value();
    else if (flag == "--help" || flag == "-h") usage_and_exit();
    else {
      std::printf("unknown flag: %s\n", flag.c_str());
      usage_and_exit();
    }
  }
  return a;
}

chem::Molecule load_molecule(const Args& a) {
  if (!a.xyz.empty()) return chem::read_xyz_file(a.xyz);
  if (a.molecule == "water") return chem::builders::water();
  if (a.molecule == "methane") return chem::builders::methane();
  if (a.molecule == "benzene") return chem::builders::benzene();
  if (a.molecule == "h2") return chem::builders::h2();
  if (a.molecule.rfind("graphene:", 0) == 0) {
    const std::size_t n =
        std::strtoul(a.molecule.c_str() + 9, nullptr, 10);
    MC_CHECK(n >= 2, "graphene:N needs N >= 2");
    return chem::builders::graphene_flake(n);
  }
  MC_CHECK(false, "unknown molecule: " + a.molecule);
  return {};
}

core::ScfAlgorithm algorithm_of(const std::string& name) {
  if (name == "mpi") return core::ScfAlgorithm::kMpiOnly;
  if (name == "private") return core::ScfAlgorithm::kPrivateFock;
  if (name == "shared") return core::ScfAlgorithm::kSharedFock;
  if (name == "dist") return core::ScfAlgorithm::kDistFock;
  MC_CHECK(false, "unknown algorithm: " + name);
  return core::ScfAlgorithm::kSharedFock;
}

int run(const Args& a) {
  const chem::Molecule mol = load_molecule(a);
  const basis::BasisSet bs = basis::BasisSet::build(mol, a.basis);
  std::printf("mchf: %zu atoms, %d electrons, %zu shells, %zu basis "
              "functions (%s)\n",
              mol.natoms(), mol.nelectrons(a.charge), bs.nshells(), bs.nbf(),
              a.basis.c_str());
  if (a.method != "uhf") {
    // The group the RHF Fock builders use while the density stays
    // invariant (UHF builds C1).
    const ints::PointGroup group = ints::PointGroup::detect(bs);
    std::printf("point group: order %d (%s)\n", group.order(),
                group.describe().c_str());
  }

  WallTimer wall;
  if (a.method == "uhf") {
    ints::EriEngine eri(bs);
    ints::Screening screen(eri, 1e-10);
    scf::UhfOptions opt;
    opt.charge = a.charge;
    opt.multiplicity = a.multiplicity;
    opt.guess_mix = a.guess_mix;
    const scf::UhfResult r = scf::run_uhf(mol, bs, eri, screen, opt);
    MC_CHECK(r.converged, "UHF did not converge");
    std::printf("UHF converged in %d iterations (%.2f s)\n", r.iterations,
                wall.seconds());
    std::printf("  E(UHF)  = %18.10f Eh\n", r.energy);
    std::printf("  <S^2>   = %10.6f (exact %.4f)\n", r.s_squared,
                0.25 * (r.nalpha - r.nbeta) * (r.nalpha - r.nbeta + 2));
    return 0;
  }

  if (a.algorithm == "serial" || a.method == "mp2") {
    MC_CHECK(a.method == "rhf" || a.method == "mp2",
             "unknown method: " + a.method);
    ints::EriEngine eri(bs);
    ints::Screening screen(eri, 1e-10);
    scf::SerialFockBuilder builder(eri, screen);
    scf::ScfOptions opt;
    opt.charge = a.charge;
    opt.profile_path = a.profile;
    const scf::ScfResult r = scf::run_scf(mol, bs, builder, opt);
    MC_CHECK(r.converged, "SCF did not converge");
    std::printf("RHF converged in %d iterations (%.2f s, Fock %.2f s)\n",
                r.iterations, wall.seconds(), r.fock_build_seconds);
    std::printf("  E(RHF)  = %18.10f Eh\n", r.energy);
    const scf::DipoleMoment dm = scf::dipole_moment(mol, bs, r.density);
    std::printf("  dipole  = %10.4f D\n", dm.magnitude_debye());
    if (a.method == "mp2") {
      scf::AoIntegralTensor ao(eri, screen);
      const scf::Mp2Result mp2 =
          scf::mp2_energy(ao, r.mo_coefficients, r.orbital_energies,
                          mol.nelectrons(a.charge) / 2, r.energy);
      std::printf("  E(2)    = %18.10f Eh\n", mp2.correlation_energy);
      std::printf("  E(MP2)  = %18.10f Eh\n", mp2.total_energy);
    }
    return 0;
  }

  // Parallel RHF through the minimpi runtime.
  core::ParallelScfConfig cfg;
  cfg.algorithm = algorithm_of(a.algorithm);
  cfg.nranks = a.ranks;
  cfg.nthreads = a.threads;
  cfg.basis = a.basis;
  cfg.scf.charge = a.charge;
  cfg.scf.profile_path = a.profile;
  const core::ParallelScfResult res = core::run_parallel_scf(mol, cfg);
  MC_CHECK(res.scf.converged, "SCF did not converge");
  std::printf("RHF [%s, %d ranks x %d threads] converged in %d iterations "
              "(%.2f s, Fock %.2f s)\n",
              core::algorithm_name(cfg.algorithm).c_str(), a.ranks,
              a.threads, res.scf.iterations, res.wall_seconds,
              res.scf.fock_build_seconds);
  std::printf("  E(RHF)  = %18.10f Eh\n", res.scf.energy);
  std::printf("  load imbalance (max/mean quartets) = %.3f\n",
              res.load_imbalance());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const mc::Error& e) {
    std::fprintf(stderr, "mchf: error: %s\n", e.what());
    return 1;
  }
}
