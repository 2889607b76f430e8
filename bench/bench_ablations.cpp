// Ablation of the one design choice the paper discusses in section 4.3
// that the builders still expose: dynamic vs static OpenMP schedule (the
// paper saw "no significant difference" for the private-Fock collapsed
// loop). Lazy FI flushing and the lane padding are fixed in the shared-Fock
// builder (EXPERIMENTS.md section 4.3 has their last ablation numbers).
// Real execution on the host; 1 rank with a 2-thread team. The builds run
// on the rank thread, so they are timed by the wall clock (UseRealTime).

#include <benchmark/benchmark.h>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/one_electron.hpp"
#include "la/orthogonalizer.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/scf_driver.hpp"

namespace {

struct Setup {
  mc::chem::Molecule mol = mc::chem::builders::benzene();
  mc::basis::BasisSet bs = mc::basis::BasisSet::build(mol, "STO-3G");
  mc::ints::EriEngine eri{bs};
  mc::ints::Screening screen{eri, 1e-10};
  mc::la::Matrix d;

  Setup() {
    mc::la::Matrix h = mc::ints::core_hamiltonian(bs, mol);
    mc::la::Matrix s = mc::ints::overlap_matrix(bs);
    mc::la::Matrix x = mc::la::canonical_orthogonalizer(s);
    d = mc::scf::core_guess_density(h, x, mol.nelectrons() / 2);
  }
  static Setup& instance() {
    static Setup s;
    return s;
  }
};

void BM_SharedFock_Schedule(benchmark::State& state) {
  Setup& s = Setup::instance();
  mc::core::SharedFockOptions opt;
  opt.nthreads = 2;
  opt.dynamic_schedule = state.range(0) != 0;
  for (auto _ : state) {
    mc::par::run_spmd(1, [&](mc::par::Comm& comm) {
      mc::par::Ddi ddi(comm);
      mc::core::FockBuilderShared builder(s.eri, s.screen, ddi, opt);
      mc::la::Matrix g(s.bs.nbf(), s.bs.nbf());
      builder.build(s.d, g);
      benchmark::DoNotOptimize(g.data());
    });
  }
  state.SetLabel(opt.dynamic_schedule ? "dynamic,1 (paper)" : "static");
}
BENCHMARK(BM_SharedFock_Schedule)->Arg(1)->Arg(0)->Unit(
    benchmark::kMillisecond)->UseRealTime();

void BM_PrivateFock_Schedule(benchmark::State& state) {
  Setup& s = Setup::instance();
  mc::core::PrivateFockOptions opt;
  opt.nthreads = 2;
  opt.dynamic_schedule = state.range(0) != 0;
  for (auto _ : state) {
    mc::par::run_spmd(1, [&](mc::par::Comm& comm) {
      mc::par::Ddi ddi(comm);
      mc::core::FockBuilderPrivate builder(s.eri, s.screen, ddi, opt);
      mc::la::Matrix g(s.bs.nbf(), s.bs.nbf());
      builder.build(s.d, g);
      benchmark::DoNotOptimize(g.data());
    });
  }
  state.SetLabel(opt.dynamic_schedule ? "dynamic,1 (paper)" : "static");
}
BENCHMARK(BM_PrivateFock_Schedule)->Arg(1)->Arg(0)->Unit(
    benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
