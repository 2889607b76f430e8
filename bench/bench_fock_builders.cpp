// Real-execution comparison of the three Fock-build algorithms (paper
// Algorithms 1-3) on this host: one SPMD job per measurement, benzene
// STO-3G density. On this single-core machine the absolute numbers only
// show overhead structure (the paper's scaling claims are reproduced by
// the knlsim harnesses), but the builders are executing the genuine
// parallel code paths: DLB counter, OpenMP teams, FI/FJ buffers, gsumf.

#include <benchmark/benchmark.h>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/one_electron.hpp"
#include "la/orthogonalizer.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

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

void BM_SerialBuild(benchmark::State& state) {
  Setup& s = Setup::instance();
  mc::scf::SerialFockBuilder builder(s.eri, s.screen);
  mc::la::Matrix g(s.bs.nbf(), s.bs.nbf());
  for (auto _ : state) {
    g.set_zero();
    builder.build(s.d, g);
    benchmark::DoNotOptimize(g.data());
  }
  state.counters["quartets"] =
      static_cast<double>(builder.last_quartets_computed());
}
BENCHMARK(BM_SerialBuild)->Unit(benchmark::kMillisecond);

// The SPMD builds below run on rank threads, so the main thread's CPU time
// is near zero and would let google-benchmark iterate to its cap: they are
// timed by the wall clock (UseRealTime).
template <typename MakeBuilder>
void run_spmd_build(int nranks, MakeBuilder&& make) {
  Setup& s = Setup::instance();
  mc::par::run_spmd(nranks, [&](mc::par::Comm& comm) {
    mc::par::Ddi ddi(comm);
    auto builder = make(ddi);
    mc::la::Matrix g(s.bs.nbf(), s.bs.nbf());
    builder->build(s.d, g);
    benchmark::DoNotOptimize(g.data());
  });
}

void BM_MpiOnlyBuild(benchmark::State& state) {
  Setup& s = Setup::instance();
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_spmd_build(nranks, [&](mc::par::Ddi& ddi) {
      return std::make_unique<mc::core::FockBuilderMpi>(s.eri, s.screen,
                                                        ddi);
    });
  }
}
BENCHMARK(BM_MpiOnlyBuild)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond)->UseRealTime();

void BM_PrivateFockBuild(benchmark::State& state) {
  Setup& s = Setup::instance();
  const int nranks = static_cast<int>(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    run_spmd_build(nranks, [&](mc::par::Ddi& ddi) {
      mc::core::PrivateFockOptions opt;
      opt.nthreads = nthreads;
      return std::make_unique<mc::core::FockBuilderPrivate>(s.eri, s.screen,
                                                            ddi, opt);
    });
  }
}
BENCHMARK(BM_PrivateFockBuild)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SharedFockBuild(benchmark::State& state) {
  Setup& s = Setup::instance();
  const int nranks = static_cast<int>(state.range(0));
  const int nthreads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    run_spmd_build(nranks, [&](mc::par::Ddi& ddi) {
      mc::core::SharedFockOptions opt;
      opt.nthreads = nthreads;
      return std::make_unique<mc::core::FockBuilderShared>(s.eri, s.screen,
                                                           ddi, opt);
    });
  }
}
BENCHMARK(BM_SharedFockBuild)
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({2, 2})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The block-distributed builder trades the replicated D/F for window
// traffic (put/get/acc + tile cache).
void BM_DistFockBuild(benchmark::State& state) {
  Setup& s = Setup::instance();
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    run_spmd_build(nranks, [&](mc::par::Ddi& ddi) {
      return std::make_unique<mc::core::FockBuilderDist>(s.eri, s.screen,
                                                         ddi);
    });
  }
}
BENCHMARK(BM_DistFockBuild)->Arg(1)->Arg(2)->Arg(4)->Unit(
    benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
