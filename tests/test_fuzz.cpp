// Unit tests for the fuzz subsystem (DESIGN.md section 14): generator
// determinism, the mixed-basis builder, the ULP separation check's power
// to catch injected protocol bugs, the empty-screening / empty-primitive
// regression guards the generator's corners demand, and window key reuse
// across consecutive SPMD fuzz jobs.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fock_fixture.hpp"
#include "fuzz/differential_harness.hpp"
#include "fuzz/fuzz_rng.hpp"
#include "fuzz/molecule_generator.hpp"
#include "ints/eri_batch.hpp"

namespace mc {
namespace {

TEST(FuzzGenerator, SameSeedReplaysTheIdenticalSample) {
  const fuzz::MoleculeGenerator gen;
  for (std::uint64_t s : {0x1ULL, 0xDEADBEEFULL, 0x123456789ABCDEF0ULL}) {
    const fuzz::FuzzSample a = gen.from_seed(s);
    const fuzz::FuzzSample b = gen.from_seed(s);
    ASSERT_EQ(a.template_name, b.template_name);
    ASSERT_EQ(a.charge, b.charge);
    ASSERT_EQ(a.nocc, b.nocc);
    ASSERT_EQ(a.basis_per_atom, b.basis_per_atom);
    ASSERT_EQ(a.schwarz_threshold, b.schwarz_threshold);  // bitwise
    ASSERT_EQ(a.mol.natoms(), b.mol.natoms());
    for (std::size_t at = 0; at < a.mol.natoms(); ++at) {
      ASSERT_EQ(a.mol.atom(at).z, b.mol.atom(at).z);
      for (int c = 0; c < 3; ++c) {
        ASSERT_EQ(a.mol.atom(at).xyz[c], b.mol.atom(at).xyz[c]);  // bitwise
      }
    }
  }
}

TEST(FuzzGenerator, SampleSpaceRoamsTemplatesChargesAndBases) {
  const fuzz::MoleculeGenerator gen;
  std::set<std::string> templates;
  bool saw_mixed = false;
  bool saw_charge = false;
  bool saw_degenerate = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const fuzz::FuzzSample s = gen.sample(/*master_seed=*/42, i);
    templates.insert(s.template_name);
    if (s.basis_label().rfind("mixed[", 0) == 0) saw_mixed = true;
    if (s.charge != 0) saw_charge = true;
    if (s.degenerate) saw_degenerate = true;
    // Every sample must satisfy its own validity contract.
    EXPECT_GE(s.nocc, 1) << s.describe();
    EXPECT_EQ(s.mol.nelectrons(s.charge) % 2, 0) << s.describe();
    EXPECT_EQ(s.basis_per_atom.size(), s.mol.natoms()) << s.describe();
  }
  EXPECT_GE(templates.size(), 4u);
  EXPECT_TRUE(saw_mixed);
  EXPECT_TRUE(saw_charge);
  EXPECT_TRUE(saw_degenerate);
}

TEST(BuildMixed, UniformAssignmentIsIdenticalToBuild) {
  const chem::Molecule mol = chem::builders::water();
  const basis::BasisSet plain = basis::BasisSet::build(mol, "6-31G");
  const basis::BasisSet mixed = basis::BasisSet::build_mixed(
      mol, std::vector<std::string>(mol.natoms(), "6-31G"));
  ASSERT_EQ(plain.nshells(), mixed.nshells());
  ASSERT_EQ(plain.nbf(), mixed.nbf());
  ASSERT_EQ(plain.name(), mixed.name());
  for (std::size_t s = 0; s < plain.nshells(); ++s) {
    EXPECT_EQ(plain.shell(s).l, mixed.shell(s).l);
    EXPECT_EQ(plain.shell(s).sp, mixed.shell(s).sp);
    EXPECT_EQ(plain.shell(s).first_bf, mixed.shell(s).first_bf);
    EXPECT_EQ(plain.shell(s).atom, mixed.shell(s).atom);
    ASSERT_EQ(plain.shell(s).exps, mixed.shell(s).exps);
    ASSERT_EQ(plain.shell(s).coefs, mixed.shell(s).coefs);
    ASSERT_EQ(plain.shell(s).coefs_p, mixed.shell(s).coefs_p);
  }
}

TEST(BuildMixed, PerAtomAssignmentFollowsTheAtomList) {
  const chem::Molecule mol = chem::builders::water();
  const std::vector<std::string> names = {"6-31G", "STO-3G", "6-31G(d)"};
  const basis::BasisSet mixed = basis::BasisSet::build_mixed(mol, names);
  EXPECT_EQ(mixed.name(), "mixed[6-31G,6-31G(d),STO-3G]");
  // The mixed set is the concatenation of each atom's own basis: function
  // counts must add up atom by atom.
  std::size_t expected_nbf = 0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    chem::Molecule one;
    const chem::Atom& atom = mol.atom(a);
    one.add_atom(atom.z, atom.xyz[0], atom.xyz[1], atom.xyz[2]);
    expected_nbf += basis::BasisSet::build(one, names[a]).nbf();
  }
  EXPECT_EQ(mixed.nbf(), expected_nbf);
  for (const basis::Shell& sh : mixed.shells()) {
    ASSERT_GE(sh.atom, 0);
    ASSERT_LT(static_cast<std::size_t>(sh.atom), mol.natoms());
  }
}

TEST(FuzzHarness, QuartetScalePerturbationIsCaught) {
  // The separation argument in action: a perturbation the size of one
  // screened-out quartet contribution (1e-9, an order above the loosest
  // generated threshold) must blow the ULP budget, while the unperturbed
  // matrix passes bit-identically.
  core::FockFixture fx(chem::builders::water(), "STO-3G");
  core::UlpComparison same =
      core::compare_bit_comparable(fx.g_ref, fx.g_ref, core::kMaxSkeletonUlps);
  EXPECT_TRUE(same.ok);
  EXPECT_EQ(same.worst_ulps, 0u);

  la::Matrix bad = fx.g_ref;
  bad.data()[3] += 1e-9;
  core::UlpComparison cmp =
      core::compare_bit_comparable(bad, fx.g_ref, core::kMaxSkeletonUlps);
  EXPECT_FALSE(cmp.ok);
  EXPECT_FALSE(core::describe_ulp_failure(cmp, "injected").empty());
}

TEST(FuzzHarness, SmokeSamplesPassTheFullSweep) {
  // A miniature of the fuzz_smoke ctest lane, inside the gtest matrix so
  // sanitizer builds sweep the harness plumbing too.
  const fuzz::MoleculeGenerator gen;
  fuzz::HarnessOptions opt;
  opt.max_ranks = 3;
  opt.configs_per_algorithm = 1;
  const fuzz::DifferentialHarness harness(opt);
  for (std::uint64_t i = 0; i < 2; ++i) {
    const fuzz::SampleReport rep = harness.run(gen.sample(7, i));
    EXPECT_TRUE(rep.ok()) << rep.sample.describe() << "\n"
                          << (rep.failures.empty() ? ""
                                                   : rep.failures.front());
    EXPECT_GE(rep.engines_run, 12u);
    EXPECT_FALSE(rep.json().empty());
  }
}

TEST(FuzzRegression, ZeroSurvivingPairsBuildsAZeroFock) {
  // A tight threshold (or a tiny delta density) can kill *every* shell
  // pair; all builders must return a zero matrix without touching the
  // quartet pipeline. Regression guard for the generated sparse corner.
  const chem::Molecule mol = chem::builders::water();
  const basis::BasisSet bs = basis::BasisSet::build(mol, "STO-3G");
  const ints::EriEngine eri(bs);
  const ints::Screening screen(eri, /*threshold=*/1e3);
  ASSERT_TRUE(screen.sorted_pairs().empty());
  ASSERT_EQ(screen.count_surviving_quartets(), 0u);
  ASSERT_TRUE(screen.sorted_bra_shells().empty());

  la::Matrix d(bs.nbf(), bs.nbf());
  d.fill(0.5);
  for (std::size_t cap : {std::size_t{0}, std::size_t{8}}) {
    scf::SerialFockBuilder serial(eri, screen, cap);
    la::Matrix g(bs.nbf(), bs.nbf());
    serial.build(d, g);
    EXPECT_EQ(serial.last_quartets_computed(), 0u);
    for (std::size_t i = 0; i < g.size(); ++i) ASSERT_EQ(g.data()[i], 0.0);
  }

  core::FockFixture fx(mol, "STO-3G");  // reuse the distributed helpers
  const ints::Screening empty_screen(fx.eri, 1e3);
  for (int alg = 0; alg < 4; ++alg) {
    la::Matrix g = core::build_distributed(fx, 2, [&](par::Ddi& ddi)
                                               -> std::unique_ptr<
                                                   scf::FockBuilder> {
      switch (alg) {
        case 0:
          return std::make_unique<core::FockBuilderMpi>(fx.eri, empty_screen,
                                                        ddi);
        case 1:
          return std::make_unique<core::FockBuilderPrivate>(
              fx.eri, empty_screen, ddi);
        case 2:
          return std::make_unique<core::FockBuilderShared>(
              fx.eri, empty_screen, ddi);
        default:
          return std::make_unique<core::FockBuilderDist>(fx.eri,
                                                         empty_screen, ddi);
      }
    });
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g.data()[i], 0.0) << "algorithm " << alg;
    }
  }
}

TEST(FuzzRegression, AllPrimitivesPrescreenedStillYieldsZeros) {
  // Two hydrogens 60 bohr apart: every primitive product of the cross
  // shell pair underflows the pair cutoff, so its quartet reaches the
  // kernel with an empty survivor set. The batched path must return exact
  // zeros (the kernel zero-fills its accumulator), not stale or
  // uninitialized values.
  chem::Molecule mol;
  mol.add_atom(1, 0.0, 0.0, 0.0);
  mol.add_atom(1, 60.0, 0.0, 0.0);
  const basis::BasisSet bs = basis::BasisSet::build(mol, "STO-3G");
  const ints::EriEngine eri(bs);
  ASSERT_EQ(bs.nshells(), 2u);

  ints::QuartetBatch batch(eri, 4);
  batch.add(0, 1, 0, 1);  // all-cross quartet: empty primitive set
  batch.add(0, 0, 0, 1);  // mixed: live bra, dead ket
  batch.add(0, 0, 0, 0);  // control: fully alive
  batch.evaluate();
  for (std::size_t q = 0; q < 2; ++q) {
    const auto& entry = batch.quartets()[q];
    const double* res = batch.result(q);
    for (std::size_t x = 0; x < entry.size; ++x) {
      ASSERT_EQ(res[x], 0.0) << "quartet " << q << " element " << x;
    }
  }
  EXPECT_GT(std::abs(batch.result(2)[0]), 0.1);  // (ss|ss) on-site
}

TEST(WindowReuse, SameKeyAcrossConsecutiveSpmdJobsGetsFreshStorage) {
  // Consecutive fuzz/soak jobs run run_spmd back to back and the dist
  // builder keys its windows by fixed registry strings ("fock-dist:D"),
  // so stale segments surviving a job boundary would corrupt the next
  // job. Two jobs of *different* rank counts reuse one key: the second
  // must see fresh zeroed storage sized for its own layout.
  const std::string key = "fuzz:job-window";
  par::run_spmd(2, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    par::Window w = ddi.create(key, {3, 3});
    const double v = 41.0 + comm.rank();
    ddi.put(w, static_cast<std::size_t>(comm.rank()) * 3, &v, 1);
    ddi.fence(w);
    ddi.destroy(w);
  });
  par::run_spmd(3, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    par::Window w = ddi.create(key, {2, 2, 2});
    double out[6];
    ddi.get(w, 0, out, 6);
    for (double x : out) EXPECT_DOUBLE_EQ(x, 0.0);  // fresh, zeroed
    ddi.fence(w);
    // Re-create after destroy *within* the same job, too (a fuzz job can
    // rebuild its screening mid-run): also fresh.
    ddi.destroy(w);
    par::Window w2 = ddi.create(key, {2, 2, 2});
    const double v = 7.0;
    ddi.acc(w2, static_cast<std::size_t>(comm.rank()) * 2, &v, 1);
    ddi.fence(w2);
    double got[6];
    ddi.get(w2, 0, got, 6);
    EXPECT_DOUBLE_EQ(got[0], 7.0);
    EXPECT_DOUBLE_EQ(got[2], 7.0);
    EXPECT_DOUBLE_EQ(got[4], 7.0);
    ddi.fence(w2);
    ddi.destroy(w2);
  });
}

}  // namespace
}  // namespace mc
