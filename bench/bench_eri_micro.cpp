// ERI engine microbenchmark: per-quartet cost by angular class on carbon
// 6-31G(d) shell pairs at the graphene bond length. This is the
// measurement that populates knlsim::EriCostTable::host_default() -- rerun
// it and update the table when the host or compiler changes. The setup
// kernels of a cold SCF (S, H = T + V, the ERI engine's shell-pair data)
// run on the two SCF benchmark molecules; like the rest, they are hand-run
// A/B diagnostics.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/one_electron.hpp"
#include "ints/shell_pair.hpp"

namespace {

struct Setup {
  mc::chem::Molecule mol;
  mc::basis::BasisSet bs;
  mc::ints::EriEngine eri;

  Setup() : mol(make_mol()), bs(mc::basis::BasisSet::build(mol, "6-31G(d)")),
            eri(bs) {}

  static mc::chem::Molecule make_mol() {
    mc::chem::Molecule m;
    m.add_atom(6, 0.0, 0.0, 0.0);
    m.add_atom(6, 0.0, 0.0, 2.68);  // C-C bond, Bohr
    return m;
  }

  static Setup& instance() {
    static Setup s;
    return s;
  }
};

// Representative shell pair per angular class (Lsum), one shell on each
// atom. Carbon 6-31G(d) has per atom a 1s shell, two fused sp ("L") shells
// and a d shell, so the classes are ss, sL, LL, Ld and dd.
struct PairRep {
  int a, b;
  const char* name;
};

// First shell of `atom` with angular momentum l and SP flag sp.
int find_shell(const mc::basis::BasisSet& bs, int atom, int l, bool sp) {
  for (std::size_t s = 0; s < bs.nshells(); ++s) {
    const mc::basis::Shell& sh = bs.shell(s);
    if (sh.atom == atom && sh.l == l && sh.sp == sp) {
      return static_cast<int>(s);
    }
  }
  std::fprintf(stderr, "no shell (l=%d, sp=%d) on atom %d\n", l,
               static_cast<int>(sp), atom);
  std::abort();
}

const PairRep* reps() {
  static const std::array<PairRep, 5> r = [] {
    const mc::basis::BasisSet& bs = Setup::instance().bs;
    auto rep = [&](int la, bool spa, int lb, bool spb, const char* name) {
      return PairRep{find_shell(bs, 0, la, spa), find_shell(bs, 1, lb, spb),
                     name};
    };
    return std::array<PairRep, 5>{
        rep(0, false, 0, false, "ss"), rep(0, false, 1, true, "sL"),
        rep(1, true, 1, true, "LL"), rep(1, true, 2, false, "Ld"),
        rep(2, false, 2, false, "dd")};
  }();
  return r.data();
}

void BM_EriQuartet(benchmark::State& state) {
  Setup& s = Setup::instance();
  const PairRep bra = reps()[state.range(0)];
  const PairRep ket = reps()[state.range(1)];
  std::vector<double> buf(
      s.eri.batch_size(bra.a, bra.b, ket.a, ket.b), 0.0);
  for (auto _ : state) {
    s.eri.compute(bra.a, bra.b, ket.a, ket.b, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
  const double units =
      static_cast<double>(s.bs.shell(bra.a).nprim()) *
      s.bs.shell(bra.b).nprim() * s.bs.shell(ket.a).nprim() *
      s.bs.shell(ket.b).nprim();
  state.SetLabel(std::string(bra.name) + "|" + ket.name);
  state.counters["s_per_unit"] = benchmark::Counter(
      units, benchmark::Counter::kIsIterationInvariantRate |
                 benchmark::Counter::kInvert);
}

// Batched pipeline over a full QuartetBatch of one class: measures the
// per-quartet cost including class grouping, the single boys_batch sweep,
// and the shared kernel -- the apples-to-apples counterpart of
// BM_EriQuartet for the same (bra, ket) class.
void BM_EriQuartetBatched(benchmark::State& state) {
  Setup& s = Setup::instance();
  const PairRep bra = reps()[state.range(0)];
  const PairRep ket = reps()[state.range(1)];
  mc::ints::QuartetBatch batch(s.eri);
  for (auto _ : state) {
    for (std::size_t q = 0; q < batch.capacity(); ++q) {
      batch.add(bra.a, bra.b, ket.a, ket.b);
    }
    batch.evaluate();
    benchmark::DoNotOptimize(batch.result(0));
    batch.clear();
  }
  state.SetLabel(std::string(bra.name) + "|" + ket.name);
  // Per-quartet time: one iteration evaluates `capacity` quartets.
  state.counters["s_per_quartet"] = benchmark::Counter(
      static_cast<double>(batch.capacity()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// A mixed-class fill (every class pairing in one batch): measures the
// grouping overhead the homogeneous benchmarks cannot see.
void BM_EriBatchMixedClasses(benchmark::State& state) {
  Setup& s = Setup::instance();
  mc::ints::QuartetBatch batch(s.eri);
  for (auto _ : state) {
    std::size_t q = 0;
    while (q < batch.capacity()) {
      for (int b = 0; b < 5 && q < batch.capacity(); ++b) {
        for (int k = 0; k < 5 && q < batch.capacity(); ++k, ++q) {
          batch.add(reps()[b].a, reps()[b].b, reps()[k].a, reps()[k].b);
        }
      }
    }
    batch.evaluate();
    benchmark::DoNotOptimize(batch.result(0));
    batch.clear();
  }
  state.counters["s_per_quartet"] = benchmark::Counter(
      static_cast<double>(batch.capacity()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// The setup kernels' molecules: 0 = pentane/STO-3G, 1 = ethane/6-31G(d).
struct SetupCase {
  mc::chem::Molecule mol;
  mc::basis::BasisSet bs;
  const char* label;
};

const SetupCase& setup_case(std::int64_t k) {
  static const std::array<SetupCase, 2> cases = [] {
    auto make = [](mc::chem::Molecule mol, const char* basis,
                   const char* label) {
      mc::basis::BasisSet bs = mc::basis::BasisSet::build(mol, basis);
      return SetupCase{std::move(mol), std::move(bs), label};
    };
    return std::array<SetupCase, 2>{
        make(mc::chem::builders::alkane(5), "STO-3G", "pentane/STO-3G"),
        make(mc::chem::builders::alkane(2), "6-31G(d)", "ethane/6-31G(d)")};
  }();
  return cases[static_cast<std::size_t>(k)];
}

void BM_OverlapMatrix(benchmark::State& state) {
  const SetupCase& c = setup_case(state.range(0));
  for (auto _ : state) {
    const mc::la::Matrix s = mc::ints::overlap_matrix(c.bs);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetLabel(c.label);
}

void BM_CoreHamiltonian(benchmark::State& state) {
  const SetupCase& c = setup_case(state.range(0));
  for (auto _ : state) {
    const mc::la::Matrix h = mc::ints::core_hamiltonian(c.bs, c.mol);
    benchmark::DoNotOptimize(h.data());
  }
  state.SetLabel(c.label);
}

void BM_ShellPairList(benchmark::State& state) {
  const SetupCase& c = setup_case(state.range(0));
  for (auto _ : state) {
    const mc::ints::ShellPairList pairs(c.bs);
    benchmark::DoNotOptimize(pairs.npairs());
  }
  state.SetLabel(c.label);
}

void RegisterAll() {
  for (int b = 0; b < 5; ++b) {
    for (int k = 0; k < 5; ++k) {
      benchmark::RegisterBenchmark("BM_EriQuartet", BM_EriQuartet)
          ->Args({b, k})
          ->Unit(benchmark::kMicrosecond);
    }
  }
  for (int b = 0; b < 5; ++b) {
    for (int k = 0; k < 5; ++k) {
      benchmark::RegisterBenchmark("BM_EriQuartetBatched",
                                   BM_EriQuartetBatched)
          ->Args({b, k})
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::RegisterBenchmark("BM_EriBatchMixedClasses",
                               BM_EriBatchMixedClasses)
      ->Unit(benchmark::kMicrosecond);
  using Bench = void (*)(benchmark::State&);
  const std::pair<const char*, Bench> setup_kernels[] = {
      {"BM_OverlapMatrix", BM_OverlapMatrix},
      {"BM_CoreHamiltonian", BM_CoreHamiltonian},
      {"BM_ShellPairList", BM_ShellPairList}};
  for (const auto& [name, fn] : setup_kernels) {
    benchmark::RegisterBenchmark(name, fn)
        ->Arg(0)
        ->Arg(1)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "ERI per-class microbenchmark (feeds knlsim::EriCostTable).\n"
      "s_per_unit = seconds per primitive-pair product; copy into\n"
      "EriCostTable::host_default() after toolchain changes.\n\n");
  RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
