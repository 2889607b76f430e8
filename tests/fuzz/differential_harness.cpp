#include "fuzz/differential_harness.hpp"

#include <array>
#include <cmath>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "basis/basis_set.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "core/memory_model.hpp"
#include "fuzz/fuzz_rng.hpp"
#include "fuzz/ulp_compare.hpp"
#include "ints/eri_batch.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

namespace mc::fuzz {

namespace {

/// One parallel-builder configuration of the sweep.
struct SweepConfig {
  core::ScfAlgorithm alg = core::ScfAlgorithm::kMpiOnly;
  int nranks = 1;
  int nthreads = 1;
  bool dynamic_schedule = true;

  [[nodiscard]] std::string label() const {
    std::ostringstream os;
    os << core::algorithm_name(alg) << "[r" << nranks;
    if (nthreads > 1) os << ",t" << nthreads;
    if (!dynamic_schedule) os << ",static";
    os << "]";
    return os.str();
  }
};

/// Draw the configuration sweep for one algorithm. The first draw is
/// forced multi-rank so every algorithm's cross-rank protocol runs on
/// every sample; the rest roam the whole option space.
std::vector<SweepConfig> draw_configs(core::ScfAlgorithm alg,
                                      std::uint64_t sample_seed,
                                      const HarnessOptions& opt) {
  Rng r(derive_seed(sample_seed,
                    0xC0DE0000 + static_cast<std::uint64_t>(alg)));
  std::vector<SweepConfig> out;
  const int n = opt.configs_per_algorithm < 1 ? 1 : opt.configs_per_algorithm;
  for (int c = 0; c < n; ++c) {
    SweepConfig cfg;
    cfg.alg = alg;
    if (c == 0 && opt.max_ranks >= 2) {
      cfg.nranks = 2 + static_cast<int>(r.below(
                           static_cast<std::uint64_t>(opt.max_ranks - 1)));
    } else {
      cfg.nranks = 1 + static_cast<int>(
                           r.below(static_cast<std::uint64_t>(opt.max_ranks)));
    }
    cfg.nthreads = 1 + static_cast<int>(r.below(3));
    cfg.dynamic_schedule = r.chance(1, 2);
    // Discarded draws, once shared Fock's FI-flush switch and dist-fock's
    // tuning options: they keep the stream aligned so a fixed seed replays
    // the same configurations.
    (void)r.chance(3, 4);
    for (const std::uint64_t n : {4u, 2u, 4u, 3u}) (void)r.below(n);
    out.push_back(cfg);
  }
  return out;
}

struct BuildOutcome {
  la::Matrix g;
  std::size_t quartets = 0;
  std::size_t density_screened = 0;
  std::string error;  ///< non-empty if the build threw
};

/// Collective build under `nranks` in-process ranks: rank 0's reduced G
/// plus rank-summed counters.
BuildOutcome run_build(const SweepConfig& cfg, const ints::EriEngine& eri,
                       const ints::Screening& screen, std::size_t nbf,
                       const la::Matrix& d, const scf::FockContext& ctx) {
  BuildOutcome out;
  out.g = la::Matrix(nbf, nbf);
  std::mutex mu;
  try {
    par::run_spmd(cfg.nranks, [&](par::Comm& comm) {
      par::Ddi ddi(comm);
      std::unique_ptr<scf::FockBuilder> builder;
      switch (cfg.alg) {
        case core::ScfAlgorithm::kMpiOnly:
          builder = std::make_unique<core::FockBuilderMpi>(eri, screen, ddi);
          break;
        case core::ScfAlgorithm::kPrivateFock: {
          core::PrivateFockOptions po;
          po.nthreads = cfg.nthreads;
          po.dynamic_schedule = cfg.dynamic_schedule;
          builder = std::make_unique<core::FockBuilderPrivate>(eri, screen,
                                                               ddi, po);
          break;
        }
        case core::ScfAlgorithm::kSharedFock: {
          core::SharedFockOptions so;
          so.nthreads = cfg.nthreads;
          so.dynamic_schedule = cfg.dynamic_schedule;
          builder = std::make_unique<core::FockBuilderShared>(eri, screen,
                                                              ddi, so);
          break;
        }
        case core::ScfAlgorithm::kDistFock:
          builder = std::make_unique<core::FockBuilderDist>(eri, screen, ddi);
          break;
      }
      la::Matrix g(nbf, nbf);
      builder->build(d, g, ctx);
      {
        std::lock_guard<std::mutex> lk(mu);
        out.quartets += builder->last_quartets_computed();
        out.density_screened += builder->last_density_screened();
        if (comm.rank() == 0) out.g = g;
      }
      comm.barrier();
    });
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

/// 8-fold permutational-symmetry audit through the batched path on up to
/// `max_quartets` surviving quartets (deterministic picks). Appends a
/// failure string per violated identity.
void symmetry_audit(const basis::BasisSet& bs, const ints::EriEngine& eri,
                    const ints::Screening& screen, std::uint64_t sample_seed,
                    std::size_t max_quartets,
                    std::vector<std::string>& failures) {
  const auto& pairs = screen.sorted_pairs();
  if (pairs.empty()) return;
  Rng r(derive_seed(sample_seed, 0x5A117));
  for (std::size_t pick = 0; pick < max_quartets; ++pick) {
    const ints::ScreenedPair& bra = pairs[r.below(pairs.size())];
    const ints::ScreenedPair& ket = pairs[r.below(pairs.size())];
    const std::size_t i = bra.i, j = bra.j, k = ket.i, l = ket.j;

    struct Image {
      std::array<std::size_t, 4> sh;
      std::array<int, 4> ax;
    };
    const std::array<Image, 8> images = {{
        {{i, j, k, l}, {0, 1, 2, 3}},
        {{j, i, k, l}, {1, 0, 2, 3}},
        {{i, j, l, k}, {0, 1, 3, 2}},
        {{j, i, l, k}, {1, 0, 3, 2}},
        {{k, l, i, j}, {2, 3, 0, 1}},
        {{l, k, i, j}, {3, 2, 0, 1}},
        {{k, l, j, i}, {2, 3, 1, 0}},
        {{l, k, j, i}, {3, 2, 1, 0}},
    }};
    ints::QuartetBatch batch(eri, images.size());
    for (const Image& im : images) {
      batch.add(im.sh[0], im.sh[1], im.sh[2], im.sh[3]);
    }
    batch.evaluate();

    const double* ref = batch.result(0);
    const int nd[4] = {bs.shell(i).nfunc(), bs.shell(j).nfunc(),
                       bs.shell(k).nfunc(), bs.shell(l).nfunc()};
    for (std::size_t m = 1; m < images.size(); ++m) {
      const Image& im = images[m];
      const double* got = batch.result(m);
      const int pd[4] = {
          bs.shell(im.sh[0]).nfunc(), bs.shell(im.sh[1]).nfunc(),
          bs.shell(im.sh[2]).nfunc(), bs.shell(im.sh[3]).nfunc()};
      int idx[4];
      for (idx[0] = 0; idx[0] < nd[0]; ++idx[0])
        for (idx[1] = 0; idx[1] < nd[1]; ++idx[1])
          for (idx[2] = 0; idx[2] < nd[2]; ++idx[2])
            for (idx[3] = 0; idx[3] < nd[3]; ++idx[3]) {
              const std::size_t rflat =
                  ((static_cast<std::size_t>(idx[0]) * nd[1] + idx[1]) *
                       nd[2] +
                   idx[2]) *
                      nd[3] +
                  idx[3];
              const std::size_t pflat =
                  ((static_cast<std::size_t>(idx[im.ax[0]]) * pd[1] +
                    idx[im.ax[1]]) *
                       pd[2] +
                   idx[im.ax[2]]) *
                      pd[3] +
                  idx[im.ax[3]];
              const double gap = std::abs(ref[rflat] - got[pflat]);
              if (gap > 1e-10) {
                std::ostringstream os;
                os << "symmetry-audit: image " << m << " of (" << i << ","
                   << j << "|" << k << "," << l << ") differs by " << gap;
                failures.push_back(os.str());
                return;  // one violation is conclusive; stop the audit
              }
            }
    }
  }
}

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::string SampleReport::json() const {
  std::ostringstream os;
  os << "{\"seed\":\"" << format_seed(sample.seed) << "\",\"template\":\""
     << sample.template_name << "\",\"natoms\":" << sample.mol.natoms()
     << ",\"charge\":" << sample.charge << ",\"basis\":\""
     << sample.basis_label() << "\",\"threshold\":"
     << sample.schwarz_threshold << ",\"nbf\":" << nbf
     << ",\"nshells\":" << nshells << ",\"survivors\":" << survivors
     << ",\"engines\":" << engines_run << ",\"worst_ulps\":" << worst_ulps
     << ",\"ok\":" << (ok() ? "true" : "false") << ",\"failures\":[";
  std::string body;
  for (std::size_t f = 0; f < failures.size(); ++f) {
    if (f > 0) body += ",";
    body += '"';
    append_escaped(body, failures[f]);
    body += '"';
  }
  os << body << "]}";
  return os.str();
}

SampleReport DifferentialHarness::run(const FuzzSample& sample) const {
  SampleReport rep;
  rep.sample = sample;
  try {
    const basis::BasisSet bs =
        basis::BasisSet::build_mixed(sample.mol, sample.basis_per_atom);
    rep.nbf = bs.nbf();
    rep.nshells = bs.nshells();
    const ints::EriEngine eri(bs);
    const ints::Screening screen(eri, sample.schwarz_threshold);

    // Densities: core guess, and the delta to the next Roothaan iterate
    // (the incremental build's input), exactly as tests/fock_fixture.hpp
    // constructs them.
    la::Matrix h = ints::core_hamiltonian(bs, sample.mol);
    la::Matrix s = ints::overlap_matrix(bs);
    la::Matrix x = la::canonical_orthogonalizer(s);
    la::Matrix d = scf::core_guess_density(h, x, sample.nocc);
    // What a full build of d computes: the static survivors, one per
    // symmetry orbit when d is invariant under the sample's point group.
    rep.survivors =
        scf::QuartetCascade::for_density(screen, d, scf::FockContext{})
            .count_kept();

    // Reference: the serial *scalar* ERI path (batch capacity 0).
    scf::SerialFockBuilder scalar(eri, screen, /*batch_capacity=*/0);
    la::Matrix g_ref(bs.nbf(), bs.nbf());
    scalar.build(d, g_ref);
    const std::size_t ref_quartets = scalar.last_quartets_computed();
    ++rep.engines_run;
    if (ref_quartets != rep.survivors) {
      std::ostringstream os;
      os << "serial-scalar full: computed " << ref_quartets
         << " quartets, screening predicts " << rep.survivors;
      rep.failures.push_back(os.str());
    }

    la::Matrix g_sym = g_ref;
    g_sym.symmetrize();
    la::Matrix f = h;
    f += g_sym;
    la::SymEigResult eig = la::eigh_generalized(f, x);
    la::Matrix d_delta = scf::density_from_coefficients(eig.vectors,
                                                        sample.nocc);
    d_delta -= d;
    const scf::FockContext delta_ctx =
        scf::FockContext::from_density(bs, d_delta, /*incremental=*/true);
    la::Matrix g_ref_delta(bs.nbf(), bs.nbf());
    scalar.build(d_delta, g_ref_delta, delta_ctx);
    const std::size_t ref_quartets_delta = scalar.last_quartets_computed();
    const std::size_t ref_screened_delta = scalar.last_density_screened();
    const std::size_t ref_skipped_delta = scalar.last_stats().symmetry_skipped;
    ++rep.engines_run;
    // Kills and symmetry skips count C1 quartets, so the three together
    // stay within the C1 static survivors.
    if (ref_quartets_delta + ref_skipped_delta + ref_screened_delta >
        screen.count_surviving_quartets()) {
      std::ostringstream os;
      os << "serial-scalar delta: computed " << ref_quartets_delta
         << " + symmetry-skipped " << ref_skipped_delta
         << " + density-screened " << ref_screened_delta
         << " exceeds the static survivor count "
         << screen.count_surviving_quartets();
      rep.failures.push_back(os.str());
    }

    // The batched ERI pipeline must be *bitwise* the scalar path (its
    // determinism contract), at a seed-drawn batch capacity so flush
    // boundaries roam too.
    {
      Rng r(derive_seed(sample.seed, 0xBA7C4));
      const std::array<std::size_t, 4> caps = {1, 3, 8, 64};
      const std::size_t cap = caps[r.below(caps.size())];
      scf::SerialFockBuilder batched(eri, screen, cap);
      la::Matrix g(bs.nbf(), bs.nbf());
      batched.build(d, g);
      ++rep.engines_run;
      std::ostringstream tag;
      tag << "serial-batched[cap" << cap << "]";
      core::UlpComparison cmp = core::compare_bit_comparable(g, g_ref, 0);
      if (!cmp.ok) {
        rep.failures.push_back(
            core::describe_ulp_failure(cmp, tag.str() + " full vs scalar"));
      }
      g.set_zero();
      batched.build(d_delta, g, delta_ctx);
      ++rep.engines_run;
      cmp = core::compare_bit_comparable(g, g_ref_delta, 0);
      if (!cmp.ok) {
        rep.failures.push_back(
            core::describe_ulp_failure(cmp, tag.str() + " delta vs scalar"));
      }
      if (batched.last_quartets_computed() != ref_quartets_delta) {
        std::ostringstream os;
        os << tag.str() << " delta computed "
           << batched.last_quartets_computed() << " quartets, scalar "
           << ref_quartets_delta;
        rep.failures.push_back(os.str());
      }
    }

    // The four parallel builders under the rank/thread/schedule sweep.
    const std::array<core::ScfAlgorithm, 4> algs = {
        core::ScfAlgorithm::kMpiOnly, core::ScfAlgorithm::kPrivateFock,
        core::ScfAlgorithm::kSharedFock, core::ScfAlgorithm::kDistFock};
    for (core::ScfAlgorithm alg : algs) {
      for (const SweepConfig& cfg : draw_configs(alg, sample.seed, opt_)) {
        // Full build: ULP-bounded vs the scalar reference, and the
        // rank-summed quartet count must hit the static survivor count
        // exactly (every builder computes the identical quartet set).
        BuildOutcome full = run_build(cfg, eri, screen, bs.nbf(), d,
                                      scf::FockContext{});
        ++rep.engines_run;
        if (!full.error.empty()) {
          rep.failures.push_back(cfg.label() + " full threw: " + full.error);
        } else {
          const core::UlpComparison cmp =
              core::compare_bit_comparable(full.g, g_ref, opt_.max_ulps);
          if (!cmp.ok) {
            rep.failures.push_back(
                core::describe_ulp_failure(cmp, cfg.label() + " full"));
          } else if (cmp.worst_ulps > rep.worst_ulps) {
            rep.worst_ulps = cmp.worst_ulps;
          }
          if (full.quartets != rep.survivors) {
            std::ostringstream os;
            os << cfg.label() << " full: rank-summed quartets "
               << full.quartets << " != static survivors " << rep.survivors;
            rep.failures.push_back(os.str());
          }
        }

        // Incremental build: same contract against the delta reference,
        // and the computed-set identity -- the screening cascade is
        // shared, so the rank-summed computed and density-screened counts
        // must match the serial scalar's exactly.
        BuildOutcome delta = run_build(cfg, eri, screen, bs.nbf(), d_delta,
                                       delta_ctx);
        ++rep.engines_run;
        if (!delta.error.empty()) {
          rep.failures.push_back(cfg.label() +
                                 " delta threw: " + delta.error);
        } else {
          const core::UlpComparison cmp = core::compare_bit_comparable(
              delta.g, g_ref_delta, opt_.max_ulps);
          if (!cmp.ok) {
            rep.failures.push_back(
                core::describe_ulp_failure(cmp, cfg.label() + " delta"));
          } else if (cmp.worst_ulps > rep.worst_ulps) {
            rep.worst_ulps = cmp.worst_ulps;
          }
          if (delta.quartets != ref_quartets_delta) {
            std::ostringstream os;
            os << cfg.label() << " delta: rank-summed quartets "
               << delta.quartets << " != serial " << ref_quartets_delta;
            rep.failures.push_back(os.str());
          }
          if (delta.density_screened != ref_screened_delta) {
            std::ostringstream os;
            os << cfg.label() << " delta: rank-summed density-screened "
               << delta.density_screened << " != serial "
               << ref_screened_delta;
            rep.failures.push_back(os.str());
          }
        }
      }
    }

    if (opt_.symmetry_audit) {
      symmetry_audit(bs, eri, screen, sample.seed, /*max_quartets=*/2,
                     rep.failures);
    }
  } catch (const std::exception& e) {
    rep.failures.push_back(std::string("harness threw: ") + e.what());
  }
  return rep;
}

}  // namespace mc::fuzz
