#pragma once
// Committed golden SCF trajectories for the regression suite in
// test_golden.cpp: per-iteration total energies (Hartree) and the
// full-vs-delta rebuild decision for each reference run. Generated by the
// serial driver (scf::run_scf with SerialFockBuilder, Schwarz threshold
// 1e-10, default ScfOptions, incremental_fock as tagged, the atomic start
// unless tagged otherwise) at %.17g -- full double precision, so the
// arrays round-trip exactly.
//
// A parallel builder reproduces the serial quartet set and only
// reassociates the additions, so every trajectory point must match to
// kGoldenEnergyTolerance (ULP-level noise amplified a little by DIIS). A
// protocol regression -- lost update, double flush, wrong screening
// decision -- shifts iteration energies by >= 1e-6 Eh and usually changes
// the iteration count, far outside the tolerance.
//
// Regenerate (only after an intentional change to the SCF numerics) by
// running any test in test_golden.cpp with MC_GOLDEN_DUMP=1 and pasting
// the printed arrays here.

namespace mc::testing {

struct GoldenIter {
  double energy;       // total energy after this iteration, Hartree
  bool full_rebuild;   // true = full G(D) build, false = delta-density
};

/// Per-iteration energy agreement demanded of every builder against these
/// serial references. Measured cross-builder drift is < 5e-11 Eh (ULP
/// reassociation through DIIS); the smallest protocol error is ~1e-6 Eh.
inline constexpr double kGoldenEnergyTolerance = 1e-9;

// benzene / STO-3G, full rebuilds (incremental_fock = false)
inline constexpr GoldenIter kBenzeneSto3gFull[] = {
    {-227.97112319989199, true},
    {-227.85580069374569, true},
    {-227.88887886870933, true},
    {-227.89100476556266, true},
    {-227.89100642255622, true},
    {-227.89100648164677, true},
    {-227.89100648177484, true},
    {-227.89100648177671, true},
};

// benzene / STO-3G, full rebuilds, started from the molecular
// core-Hamiltonian density (run_scf seeded with core_guess_density): the
// trajectory every builder followed before the SCF started from atomic
// densities. Kept so one test shows that the SCF loop itself is
// unchanged; it reaches the atomic start's fixed point in two more
// iterations.
inline constexpr GoldenIter kBenzeneSto3gFullCoreStart[] = {
    {-207.64066406085126, true},
    {-224.17479000189471, true},
    {-227.08644356912978, true},
    {-227.88629046138053, true},
    {-227.8909476094253, true},
    {-227.8910057569378, true},
    {-227.89100645991689, true},
    {-227.89100648176546, true},
    {-227.89100648177478, true},
    {-227.89100648177694, true},
};

// benzene / STO-3G, incremental delta-density builds (default options)
inline constexpr GoldenIter kBenzeneSto3gIncremental[] = {
    {-227.97112319989199, true},
    {-227.85580069374535, false},
    {-227.88887886870893, false},
    {-227.891004765563, false},
    {-227.89100642255684, false},
    {-227.8910064816495, false},
    {-227.89100648177671, false},
    {-227.89100648178126, false},
};

// water / 6-31G, full rebuilds
inline constexpr GoldenIter kWater631gFull[] = {
    {-72.739152479002499, true},
    {-75.112750638490013, true},
    {-75.934668279252634, true},
    {-75.980290404828992, true},
    {-75.983704293626744, true},
    {-75.983947700689185, true},
    {-75.98395329096968, true},
    {-75.983953325327377, true},
    {-75.983953326064452, true},
    {-75.983953326078506, true},
    {-75.983953326078847, true},
};

// water / 6-31G, incremental delta-density builds
inline constexpr GoldenIter kWater631gIncremental[] = {
    {-72.739152479002499, true},
    {-75.112750638490013, false},
    {-75.93466827925262, false},
    {-75.980290404828992, false},
    {-75.983704293626829, false},
    {-75.983947700689171, false},
    {-75.983953290969609, false},
    {-75.983953325327377, false},
    {-75.98395332606448, false},
    {-75.983953326078563, false},
    {-75.983953326078876, false},
};

}  // namespace mc::testing
