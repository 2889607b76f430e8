// Observability-layer tests (DESIGN.md section 10): trace ring buffers and
// chrome-trace export, channel accumulators, the per-iteration metrics
// records, and the counter properties the profiling output relies on --
// per-thread quartet counters summing to the screening prediction,
// rank-aggregated counters invariant under the rank count, and every
// builder screening exactly the serial builder's quartets. The final test
// is the PR's acceptance criterion: a profiled benzene/STO-3G run emits a
// metrics stream whose per-rank quartet counts sum to the
// screening-predicted total, plus a chrome-trace JSON.

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chem/builders.hpp"
#include "core/parallel_scf.hpp"
#include "fock_fixture.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mc::core {
namespace {

/// Save/restore the global trace + metrics flags around a test so the
/// binary's tests stay order-independent.
struct ObsFlagGuard {
  bool trace = obs::trace_enabled();
  bool metrics = obs::metrics_enabled();
  ~ObsFlagGuard() {
    obs::set_trace_enabled(trace);
    obs::set_metrics_enabled(metrics);
  }
};

// --- trace -----------------------------------------------------------------

TEST(Trace, DisabledRecordsNothing) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(false);
  obs::reset_trace();
  { MC_OBS_TRACE("should-not-appear"); }
  EXPECT_EQ(obs::trace_event_count(), 0u);
}

TEST(Trace, RecordsScopedEventsAndExportsChromeTrace) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  {
    MC_OBS_TRACE("outer-span");
    { MC_OBS_TRACE("inner-span"); }
  }
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 2u);
  EXPECT_EQ(obs::trace_events_dropped(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"outer-span\""), std::string::npos);
  EXPECT_NE(json.find("\"inner-span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);      // duration events
  EXPECT_NE(json.find("process_name"), std::string::npos);     // rank metadata
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
}

/// A numeric field ("ts", "dur") of the named span in an exported chrome
/// trace; -1 if the span is missing. Every event writes its name first.
double span_field(const std::string& json, const std::string& span,
                  const std::string& key) {
  const std::size_t at = json.find("\"" + span + "\"");
  if (at == std::string::npos) return -1.0;
  const std::string needle = "\"" + key + "\":";
  return std::stod(json.substr(json.find(needle, at) + needle.size()));
}

TEST(Trace, NestedSpansExportOrderedTimestamps) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  {
    MC_OBS_TRACE("outer-span");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      MC_OBS_TRACE("inner-span");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::set_trace_enabled(false);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  // A real timeline: the earliest event opens it at 0 and the child sits
  // inside its parent.
  const double outer_ts = span_field(json, "outer-span", "ts");
  const double inner_ts = span_field(json, "inner-span", "ts");
  EXPECT_EQ(outer_ts, 0.0);
  EXPECT_LT(outer_ts, inner_ts);
  EXPECT_LE(inner_ts + span_field(json, "inner-span", "dur"),
            outer_ts + span_field(json, "outer-span", "dur"));
}

TEST(Trace, ExportEpochIsEarliestEventOnAnyThread) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  { MC_OBS_TRACE("register-this-thread"); }
  obs::reset_trace();
  // The worker's buffer registers after this thread's, yet holds the
  // earliest event: the epoch is a minimum over every buffer, not the
  // first event exported.
  std::thread worker([] {
    MC_OBS_TRACE("early-span");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  worker.join();
  { MC_OBS_TRACE("late-span"); }
  obs::set_trace_enabled(false);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string json = os.str();

  const double early_ts = span_field(json, "early-span", "ts");
  const double late_ts = span_field(json, "late-span", "ts");
  EXPECT_LT(json.find("\"late-span\""), json.find("\"early-span\""));
  EXPECT_EQ(early_ts, 0.0);
  EXPECT_GE(late_ts, early_ts + span_field(json, "early-span", "dur"));
}

TEST(Trace, SpanDurationsAreNonNegativeAndOrdered) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  const std::uint64_t a = obs::monotonic_ns();
  { MC_OBS_TRACE("ordered"); }
  const std::uint64_t b = obs::monotonic_ns();
  EXPECT_LE(a, b);
  obs::set_trace_enabled(false);
  EXPECT_EQ(obs::trace_event_count(), 1u);
}

TEST(Trace, RingBufferWrapCountsDrops) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(true);
  obs::reset_trace();
  // Well past the per-thread ring capacity: the newest events survive, the
  // overflow is reported instead of silently vanishing.
  constexpr int kEvents = 40000;
  for (int i = 0; i < kEvents; ++i) {
    MC_OBS_TRACE("wrap");
  }
  obs::set_trace_enabled(false);
  EXPECT_GT(obs::trace_events_dropped(), 0u);
  EXPECT_LT(obs::trace_event_count(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(obs::trace_event_count() + obs::trace_events_dropped(),
            static_cast<std::size_t>(kEvents));
}

// --- channel metrics -------------------------------------------------------

TEST(Metrics, ChannelAccumulationAndReset) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  obs::add_channel_ns(obs::Channel::kGsum, 3, 1500);
  obs::add_channel_ns(obs::Channel::kGsum, 3, 500);
  EXPECT_EQ(obs::channel_ns(obs::Channel::kGsum, 3), 2000u);
  EXPECT_DOUBLE_EQ(obs::channel_seconds(obs::Channel::kGsum, 3), 2e-6);
  EXPECT_EQ(obs::channel_ns(obs::Channel::kGsum, 4), 0u);
  EXPECT_EQ(obs::channel_ns(obs::Channel::kBarrier, 3), 0u);
  obs::reset_metrics();
  EXPECT_EQ(obs::channel_ns(obs::Channel::kGsum, 3), 0u);
}

TEST(Metrics, UnattributedAndOverflowRanksShareTheSpillSlot) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  obs::add_channel_ns(obs::Channel::kDlbWait, -1, 100);   // unattributed
  obs::add_channel_ns(obs::Channel::kDlbWait, 1000, 10);  // beyond the table
  EXPECT_EQ(obs::channel_ns(obs::Channel::kDlbWait, -1), 110u);
  EXPECT_EQ(obs::channel_ns(obs::Channel::kDlbWait, 1000), 110u);
  obs::reset_metrics();
}

TEST(Metrics, ScopedTimerIsInertWhenDisabled) {
  ObsFlagGuard guard;
  obs::set_metrics_enabled(true);
  obs::reset_metrics();
  obs::set_metrics_enabled(false);
  { obs::ScopedChannelTimer t(obs::Channel::kBarrier, 0); }
  EXPECT_EQ(obs::channel_ns(obs::Channel::kBarrier, 0), 0u);
}

TEST(Metrics, IterationJsonCarriesTheSchema) {
  obs::IterationRecord rec;
  rec.algorithm = "shared-fock";
  rec.nranks = 2;
  rec.nthreads = 2;
  rec.iteration = 3;
  rec.energy = -227.5;
  rec.full_rebuild = false;
  rec.quartets = 40;
  rec.symmetry_skipped = 77;
  rec.screening_predicted_quartets = 42;
  rec.group_order = 8;
  obs::RankIterationMetrics r0;
  r0.rank = 0;
  r0.build.quartets = 10;
  r0.build.symmetry_skipped = 33;
  r0.build.thread_quartets = {4, 6};
  obs::RankIterationMetrics r1;
  r1.rank = 1;
  r1.build.quartets = 30;
  r1.build.thread_quartets = {15, 15};
  rec.ranks = {r0, r1};

  EXPECT_DOUBLE_EQ(rec.load_imbalance(), 1.5);  // max 30 / mean 20

  const std::string json = obs::iteration_json(rec);
  EXPECT_NE(json.find("\"type\":\"scf_iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"algorithm\":\"shared-fock\""), std::string::npos);
  EXPECT_NE(json.find("\"iter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"full_rebuild\":false"), std::string::npos);
  EXPECT_NE(json.find("\"screening_predicted_quartets\":42"),
            std::string::npos);
  EXPECT_NE(json.find("\"symmetry_skipped\":77"), std::string::npos);
  EXPECT_NE(json.find("\"group_order\":8"), std::string::npos);
  EXPECT_NE(json.find("\"symmetry_skipped\":33,\"thread_quartets\":[4,6]"),
            std::string::npos);
  EXPECT_NE(json.find("\"thread_quartets\":[4,6]"), std::string::npos);
  EXPECT_NE(json.find("\"thread_quartets\":[15,15]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(Metrics, EmptyRecordHasUnitImbalance) {
  const obs::IterationRecord rec;
  EXPECT_DOUBLE_EQ(rec.load_imbalance(), 1.0);
}

// --- counter properties ----------------------------------------------------

const FockFixture& fixture() {
  static const FockFixture fx(chem::builders::water(), "6-31G");
  return fx;
}

struct BuildCounts {
  std::size_t quartets = 0;
  std::size_t static_screened = 0;
  std::size_t density_screened = 0;
  std::size_t symmetry_skipped = 0;
  std::size_t thread_sum = 0;
  std::size_t pairs_claimed = 0;
  int group_order = 0;

  /// Every quartet the build classified: computed, carried by its symmetry
  /// orbit's representative, or killed.
  [[nodiscard]] std::size_t classified() const {
    return quartets + symmetry_skipped + static_screened + density_screened;
  }
};

/// The quartets a C1 build of `ctx` classifies: every canonical quartet
/// under a bra pair the C1 pair bounds keep. Kills and symmetry skips count
/// C1 quartets, so every build of every algorithm classifies exactly these.
std::size_t c1_candidates(const ints::Screening& screen,
                          const scf::FockContext& ctx) {
  const scf::QuartetCascade c1(screen, ctx);
  std::size_t n = 0;
  for (const ints::ScreenedPair& pr : screen.sorted_pairs()) {
    if (c1.keep_pair(pr.i, pr.j)) n += scf::kl_count(pr.i, pr.j);
  }
  return n;
}

/// Run one distributed build of `d` under `ctx` and return the
/// rank-aggregated counters.
template <typename MakeBuilder>
BuildCounts count_build(const FockFixture& fx, int nranks, const la::Matrix& d,
                        const scf::FockContext& ctx, MakeBuilder&& make) {
  BuildCounts total;
  std::mutex mu;
  par::run_spmd(nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    auto builder = make(ddi);
    la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
    builder->build(d, g, ctx);
    std::lock_guard<std::mutex> lk(mu);
    total.quartets += builder->last_quartets_computed();
    total.static_screened += builder->last_stats().static_screened;
    total.density_screened += builder->last_density_screened();
    total.symmetry_skipped += builder->last_stats().symmetry_skipped;
    total.pairs_claimed += builder->last_pairs_claimed();
    total.group_order = builder->last_stats().group_order;
    for (const std::size_t q : builder->last_thread_quartets()) {
      total.thread_sum += q;
    }
  });
  return total;
}

/// count_build of the fixture's full density (trivial context) or of its
/// delta density under the delta context.
template <typename MakeBuilder>
BuildCounts count_distributed(const FockFixture& fx, int nranks, bool delta,
                              MakeBuilder&& make) {
  return delta ? count_build(fx, nranks, fx.d_delta, fx.delta_ctx, make)
               : count_build(fx, nranks, fx.d, scf::FockContext{}, make);
}

template <typename MakeBuilder>
void expect_rank_invariant(const char* what, MakeBuilder&& make) {
  const FockFixture& fx = fixture();
  for (const bool delta : {false, true}) {
    const BuildCounts one = count_distributed(fx, 1, delta, make);
    for (const int nranks : {2, 4}) {
      const BuildCounts many = count_distributed(fx, nranks, delta, make);
      const std::string ctx = std::string(what) +
                              (delta ? " (delta ctx, " : " (trivial ctx, ") +
                              std::to_string(nranks) + " ranks)";
      EXPECT_EQ(many.quartets, one.quartets) << ctx;
      EXPECT_EQ(many.static_screened, one.static_screened) << ctx;
      EXPECT_EQ(many.density_screened, one.density_screened) << ctx;
      EXPECT_EQ(many.symmetry_skipped, one.symmetry_skipped) << ctx;
      EXPECT_EQ(many.thread_sum, many.quartets) << ctx;
    }
    EXPECT_EQ(one.thread_sum, one.quartets) << what;
    // Water is C2v and its core guess invariant: the full build is
    // symmetry-unique. (The fixture's delta is invariant only to about
    // 1e-13, outside the 1e-11 threshold's tolerance, so it builds C1.)
    // Either way every C1 candidate is classified once.
    if (!delta) {
      EXPECT_EQ(one.group_order, 4) << what;
      EXPECT_GT(one.symmetry_skipped, 0u) << what;
    }
    EXPECT_EQ(one.classified(),
              c1_candidates(fx.screen,
                            delta ? fx.delta_ctx : scf::FockContext{}))
        << what;
  }
}

/// Quartets a full build of the fixture's density computes, from the
/// cascade's own predicate: the static survivors, one per symmetry orbit
/// (water is C2v, so fewer than Screening::count_surviving_quartets).
std::size_t predicted_full(const FockFixture& fx) {
  return scf::QuartetCascade::for_density(fx.screen, fx.d,
                                          scf::FockContext{})
      .count_kept();
}

TEST(ObsCounters, SerialThreadSumMatchesScreeningPrediction) {
  const FockFixture& fx = fixture();
  scf::SerialFockBuilder builder(fx.eri, fx.screen);
  la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
  builder.build(fx.d, g);
  EXPECT_EQ(builder.last_stats().group_order, 4);
  const std::size_t predicted = predicted_full(fx);
  EXPECT_EQ(builder.last_quartets_computed(), predicted);
  std::size_t thread_sum = 0;
  for (const std::size_t q : builder.last_thread_quartets()) thread_sum += q;
  EXPECT_EQ(thread_sum, predicted);
  EXPECT_EQ(builder.screening_predicted_quartets(), predicted);
}

TEST(ObsCounters, MpiThreadSumMatchesScreeningPrediction) {
  const FockFixture& fx = fixture();
  const BuildCounts c = count_distributed(fx, 1, false, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
  });
  EXPECT_EQ(c.thread_sum, predicted_full(fx));
  EXPECT_EQ(c.quartets, predicted_full(fx));
}

TEST(ObsCounters, PrivateFockThreadSumMatchesScreeningPrediction) {
  const FockFixture& fx = fixture();
  const BuildCounts c = count_distributed(fx, 1, false, [&](par::Ddi& ddi) {
    PrivateFockOptions opt;
    opt.nthreads = 3;
    return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi, opt);
  });
  EXPECT_EQ(c.thread_sum, predicted_full(fx));
  EXPECT_EQ(c.quartets, predicted_full(fx));
}

TEST(ObsCounters, SharedFockThreadSumMatchesScreeningPrediction) {
  const FockFixture& fx = fixture();
  const BuildCounts c = count_distributed(fx, 1, false, [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 3;
    return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi, opt);
  });
  EXPECT_EQ(c.thread_sum, predicted_full(fx));
  EXPECT_EQ(c.quartets, predicted_full(fx));
}

TEST(ObsCounters, MpiCountersInvariantUnderRankCount) {
  const FockFixture& fx = fixture();
  expect_rank_invariant("mpi-only", [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
  });
}

TEST(ObsCounters, PrivateFockCountersInvariantUnderRankCount) {
  const FockFixture& fx = fixture();
  expect_rank_invariant("private-fock", [&](par::Ddi& ddi) {
    PrivateFockOptions opt;
    opt.nthreads = 2;
    return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi, opt);
  });
}

TEST(ObsCounters, SharedFockCountersInvariantUnderRankCount) {
  const FockFixture& fx = fixture();
  expect_rank_invariant("shared-fock", [&](par::Ddi& ddi) {
    SharedFockOptions opt;
    opt.nthreads = 2;
    return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi, opt);
  });
}

TEST(ObsCounters, DistThreadSumMatchesScreeningPrediction) {
  const FockFixture& fx = fixture();
  const BuildCounts c = count_distributed(fx, 1, false, [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  });
  EXPECT_EQ(c.thread_sum, predicted_full(fx));
  EXPECT_EQ(c.quartets, predicted_full(fx));
}

TEST(ObsCounters, DistCountersInvariantUnderRankCount) {
  const FockFixture& fx = fixture();
  expect_rank_invariant("dist-fock", [&](par::Ddi& ddi) {
    return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
  });
}

TEST(ObsCounters, DistReadsThreeTilesPerQuartetAndFetchesEachTileOnce) {
  // The scatter reads the density rows of shells i, j and k of every
  // quartet, and nothing else requests a tile: rank-summed tile reads are
  // exactly 3 x the quartets computed. A tile is fetched on its first
  // request and kept for the build, so a rank misses at most once per
  // tile. Full and delta builds alike.
  const FockFixture& fx = fixture();
  for (const int nranks : {1, 2, 3, 4}) {
    const std::size_t ntiles = TileLayout::build(fx.bs, nranks).ntiles;
    for (const bool delta : {false, true}) {
      std::size_t quartets = 0;
      std::size_t reads = 0;
      std::mutex mu;
      par::run_spmd(nranks, [&](par::Comm& comm) {
        par::Ddi ddi(comm);
        FockBuilderDist builder(fx.eri, fx.screen, ddi);
        la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
        if (delta) {
          builder.build(fx.d_delta, g, fx.delta_ctx);
        } else {
          builder.build(fx.d, g);
        }
        std::lock_guard<std::mutex> lk(mu);
        quartets += builder.last_quartets_computed();
        reads += builder.last_tile_cache_hits() +
                 builder.last_tile_cache_misses();
        EXPECT_LE(builder.last_tile_cache_misses(), ntiles)
            << nranks << " ranks, rank " << comm.rank();
      });
      const std::string what = std::to_string(nranks) +
                               (delta ? " ranks, delta" : " ranks, full");
      EXPECT_GT(quartets, 0u) << what;
      EXPECT_EQ(reads, 3 * quartets) << what;
    }
  }
}

TEST(ObsCounters, AllBuildersScreenTheSameQuartets) {
  // Every builder asks the one QuartetCascade, so each must report the
  // serial builder's quartets, static kills and density kills, summed over
  // ranks: for a full build, and for near-convergence deltas (the
  // fixture's, scaled to ~1e-8 and ~1e-10 under the tight incremental
  // scale) whose density bound fires -- at ~1e-10 at pair level too.
  // Benzene is big enough for the static bound to kill quartets as well.
  static const FockFixture fx(chem::builders::benzene(), "STO-3G");
  struct Input {
    std::string what;
    double scale;  ///< of the fixture delta; 0 = the full density
    la::Matrix d;
    scf::FockContext ctx;
  };
  std::vector<Input> inputs;
  // The core guess is invariant under D2h only to about 5e-13, which the
  // fixture's 1e-11 threshold does not tolerate; projected, it is exactly
  // invariant, so every input builds symmetry-unique.
  la::Matrix d_full = fx.d;
  fx.screen.point_group().project(d_full);
  inputs.push_back({"full", 0.0, d_full, scf::FockContext{}});
  for (const double scale : {1e-8, 1e-10}) {
    Input in{scale == 1e-8 ? "delta x 1e-8" : "delta x 1e-10", scale,
             fx.d_delta, {}};
    in.d *= scale;
    in.ctx = scf::FockContext::from_density(fx.bs, in.d, /*incremental=*/true);
    in.ctx.threshold_scale = 0.01;
    inputs.push_back(std::move(in));
  }

  using Make = std::function<std::unique_ptr<scf::FockBuilder>(par::Ddi&)>;
  const std::vector<std::pair<const char*, Make>> builders = {
      {"mpi-only",
       [&](par::Ddi& ddi) {
         return std::make_unique<FockBuilderMpi>(fx.eri, fx.screen, ddi);
       }},
      {"private-fock",
       [&](par::Ddi& ddi) {
         PrivateFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi,
                                                     opt);
       }},
      {"shared-fock",
       [&](par::Ddi& ddi) {
         SharedFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi,
                                                    opt);
       }},
      {"dist-fock",
       [&](par::Ddi& ddi) {
         return std::make_unique<FockBuilderDist>(fx.eri, fx.screen, ddi);
       }},
  };
  for (const Input& in : inputs) {
    scf::SerialFockBuilder serial(fx.eri, fx.screen);
    la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
    serial.build(in.d, g, in.ctx);
    EXPECT_EQ(serial.last_stats().group_order, 8) << in.what;
    EXPECT_GT(serial.last_stats().static_screened, 0u);
    EXPECT_EQ(serial.last_density_screened() > 0, in.scale > 0.0);
    const std::size_t candidates = c1_candidates(fx.screen, in.ctx);
    EXPECT_EQ(serial.last_quartets_computed() +
                  serial.last_stats().symmetry_skipped +
                  serial.last_stats().static_screened +
                  serial.last_density_screened(),
              candidates)
        << in.what;
    if (in.scale == 1e-10) {
      const scf::QuartetCascade cascade(fx.screen, in.ctx);
      std::size_t pairs_killed = 0;
      for (const ints::ScreenedPair& pr : fx.screen.sorted_pairs()) {
        pairs_killed += cascade.keep_pair(pr.i, pr.j) ? 0 : 1;
      }
      EXPECT_GT(pairs_killed, 0u) << "the pair prescreen should fire";
    }
    for (const auto& [what, make] : builders) {
      for (const int nranks : {1, 2}) {
        const BuildCounts c = count_build(fx, nranks, in.d, in.ctx, make);
        const std::string where = std::string(what) + " (" + in.what +
                                  ", " + std::to_string(nranks) + " ranks)";
        EXPECT_EQ(c.quartets, serial.last_quartets_computed()) << where;
        EXPECT_EQ(c.static_screened, serial.last_stats().static_screened)
            << where;
        EXPECT_EQ(c.density_screened, serial.last_density_screened())
            << where;
        EXPECT_EQ(c.symmetry_skipped, serial.last_stats().symmetry_skipped)
            << where;
        EXPECT_EQ(c.classified(), candidates) << where;
        EXPECT_EQ(c.thread_sum, c.quartets) << where;
      }
    }
  }
}

// --- team sync -------------------------------------------------------------

TEST(Metrics, HybridTeamBarriersChargeTheRankBarrierChannel) {
  // The team master of the shared and private builders is the rank thread:
  // it charges its team-barrier waits to the rank's barrier channel, and
  // only with metrics on. A one-rank build calls no minimpi barrier, so
  // the channel holds the team-sync time alone.
  ObsFlagGuard guard;
  const FockFixture& fx = fixture();
  using Make = std::function<std::unique_ptr<scf::FockBuilder>(par::Ddi&)>;
  const std::vector<std::pair<const char*, Make>> builders = {
      {"shared-fock",
       [&](par::Ddi& ddi) {
         SharedFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderShared>(fx.eri, fx.screen, ddi,
                                                    opt);
       }},
      {"private-fock",
       [&](par::Ddi& ddi) {
         PrivateFockOptions opt;
         opt.nthreads = 2;
         return std::make_unique<FockBuilderPrivate>(fx.eri, fx.screen, ddi,
                                                     opt);
       }},
  };
  for (const bool on : {true, false}) {
    for (const auto& [what, make] : builders) {
      obs::set_metrics_enabled(on);
      obs::reset_metrics();
      count_build(fx, 1, fx.d, scf::FockContext{}, make);
      const std::uint64_t ns = obs::channel_ns(obs::Channel::kBarrier, 0);
      if (on) {
        EXPECT_GT(ns, 0u) << what;
      } else {
        EXPECT_EQ(ns, 0u) << what;
      }
    }
  }
  obs::reset_metrics();
}

// --- profile sessions ------------------------------------------------------

std::size_t extract_size(const std::string& s, const std::string& key,
                         std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = s.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  return static_cast<std::size_t>(
      std::stoull(s.substr(pos + needle.size())));
}

std::vector<std::size_t> extract_all_sizes(const std::string& s,
                                           const std::string& key) {
  std::vector<std::size_t> out;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    out.push_back(static_cast<std::size_t>(
        std::stoull(s.substr(pos + needle.size()))));
  }
  return out;
}

std::vector<std::size_t> sum_of_each_thread_array(const std::string& s) {
  std::vector<std::size_t> sums;
  const std::string needle = "\"thread_quartets\":[";
  for (std::size_t pos = s.find(needle); pos != std::string::npos;
       pos = s.find(needle, pos + 1)) {
    std::size_t p = pos + needle.size();
    std::size_t sum = 0;
    while (p < s.size() && s[p] != ']') {
      if (s[p] == ',') {
        ++p;
        continue;
      }
      std::size_t used = 0;
      sum += static_cast<std::size_t>(std::stoull(s.substr(p), &used));
      p += used;
    }
    sums.push_back(sum);
  }
  return sums;
}

TEST(Profile, SerialSessionEmitsMetricsAndRestoresFlags) {
  ObsFlagGuard guard;
  obs::set_trace_enabled(false);
  obs::set_metrics_enabled(false);
  const std::string base = ::testing::TempDir() + "mc_obs_serial";
  {
    auto mol = chem::builders::water();
    auto bs = basis::BasisSet::build(mol, "STO-3G");
    ints::EriEngine eri(bs);
    ints::Screening screen(eri, 1e-10);
    scf::SerialFockBuilder builder(eri, screen);
    scf::ScfOptions opt;
    opt.profile_path = base;
    const scf::ScfResult res = scf::run_scf(mol, bs, builder, opt);
    EXPECT_TRUE(res.converged);
  }
  // The session restored the flags it flipped on.
  EXPECT_FALSE(obs::trace_enabled());
  EXPECT_FALSE(obs::metrics_enabled());

  std::ifstream in(base + ".metrics.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
  EXPECT_NE(line.find("\"algorithm\":\"serial\""), std::string::npos);
  EXPECT_NE(line.find("\"full_rebuild\":true"), std::string::npos);
  EXPECT_EQ(extract_size(line, "quartets"),
            extract_size(line, "screening_predicted_quartets"));
  // Water is C2v, and the atomic start is invariant under it.
  EXPECT_EQ(extract_size(line, "group_order"), 4u);
  EXPECT_GT(extract_size(line, "symmetry_skipped"), 0u);

  std::ifstream trace(base + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::stringstream buf;
  buf << trace.rdbuf();
  EXPECT_NE(buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(buf.str().find("scf:iteration"), std::string::npos);
}

// The PR's acceptance criterion: a profiled benzene/STO-3G run emits (a) a
// metrics stream whose full-rebuild records satisfy
// sum(rank quartets) == total quartets == screening-predicted quartets and
// whose per-rank thread counters sum to the rank totals, and (b) a
// chrome-trace JSON with the per-algorithm spans.
TEST(Profile, ParallelBenzeneRunSatisfiesAcceptanceChecks) {
  ObsFlagGuard guard;
  const std::string base = ::testing::TempDir() + "mc_obs_accept";
  ParallelScfConfig cfg;
  cfg.algorithm = ScfAlgorithm::kSharedFock;
  cfg.nranks = 2;
  cfg.nthreads = 2;
  cfg.basis = "STO-3G";
  cfg.scf.max_iterations = 4;  // the checks don't need convergence
  cfg.scf.profile_path = base;
  const ParallelScfResult res =
      run_parallel_scf(chem::builders::benzene(), cfg);
  EXPECT_EQ(res.scf.iterations, 4);

  std::ifstream in(base + ".metrics.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  int records = 0;
  while (std::getline(in, line)) {
    ++records;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(extract_size(line, "nranks"), 2u);

    const std::size_t total = extract_size(line, "quartets");
    const std::size_t ranks_start = line.find("\"ranks\":[");
    ASSERT_NE(ranks_start, std::string::npos);
    const std::string ranks = line.substr(ranks_start);
    const std::vector<std::size_t> per_rank =
        extract_all_sizes(ranks, "quartets");
    ASSERT_EQ(per_rank.size(), 2u);
    EXPECT_EQ(per_rank[0] + per_rank[1], total) << "record " << records;

    const std::vector<std::size_t> thread_sums =
        sum_of_each_thread_array(ranks);
    ASSERT_EQ(thread_sums.size(), 2u);
    EXPECT_EQ(thread_sums[0], per_rank[0]) << "record " << records;
    EXPECT_EQ(thread_sums[1], per_rank[1]) << "record " << records;

    if (line.find("\"full_rebuild\":true") != std::string::npos) {
      EXPECT_EQ(total, extract_size(line, "screening_predicted_quartets"))
          << "record " << records;
    }
  }
  EXPECT_EQ(records, 4);

  std::ifstream trace(base + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::stringstream buf;
  buf << trace.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"fock:shared\""), std::string::npos);
  EXPECT_NE(json.find("\"fock:shared:ij_task\""), std::string::npos);
  EXPECT_NE(json.find("\"gsumf\""), std::string::npos);
  EXPECT_NE(json.find("\"scf:iteration\""), std::string::npos);
}

/// Spans named `span` that rank `rank` recorded, in an exported chrome
/// trace.
int rank_spans(const std::string& json, const std::string& span, int rank) {
  const std::string head = "{\"name\":\"" + span +
                           "\",\"cat\":\"obs\",\"ph\":\"X\",\"pid\":" +
                           std::to_string(rank) + ",";
  int n = 0;
  for (std::size_t at = json.find(head); at != std::string::npos;
       at = json.find(head, at + 1)) {
    ++n;
  }
  return n;
}

TEST(Profile, ColdSetupSpansEveryRankOnce) {
  // A profiled cold run shows per rank where its setup time went: the
  // basis, the ERI engine's pair data, the Schwarz screening, S/H/X and
  // the atomic start.
  ObsFlagGuard guard;
  const std::string base = ::testing::TempDir() + "mc_obs_setup";
  ParallelScfConfig cfg;
  cfg.algorithm = ScfAlgorithm::kMpiOnly;
  cfg.nranks = 2;
  cfg.nthreads = 1;
  cfg.basis = "STO-3G";
  cfg.scf.max_iterations = 2;
  cfg.scf.profile_path = base;
  run_parallel_scf(chem::builders::water(), cfg);

  std::ifstream trace(base + ".trace.json");
  ASSERT_TRUE(trace.good());
  std::stringstream buf;
  buf << trace.rdbuf();
  for (const char* span : {"setup:basis", "setup:eri_engine",
                           "setup:screening", "setup:one_electron",
                           "setup:atomic_guess"}) {
    for (int rank = 0; rank < 2; ++rank) {
      EXPECT_EQ(rank_spans(buf.str(), span, rank), 1)
          << span << " rank " << rank;
    }
  }
}

TEST(Profile, RecordThreadCountIsWidestRankThreadSplit) {
  // A record's nthreads counts the threads that computed quartets, so a
  // single-threaded builder reports 1 whatever the config asked for.
  ObsFlagGuard guard;
  auto nthreads_of = [](ScfAlgorithm alg, int nranks, const char* tag) {
    const std::string base = ::testing::TempDir() + tag;
    ParallelScfConfig cfg;
    cfg.algorithm = alg;
    cfg.nranks = nranks;
    cfg.nthreads = 2;
    cfg.basis = "STO-3G";
    cfg.scf.max_iterations = 2;
    cfg.scf.profile_path = base;
    run_parallel_scf(chem::builders::water(), cfg);
    std::ifstream in(base + ".metrics.jsonl");
    std::vector<std::size_t> out;
    for (std::string line; std::getline(in, line);) {
      out.push_back(extract_size(line, "nthreads"));
    }
    return out;
  };
  EXPECT_EQ(nthreads_of(ScfAlgorithm::kMpiOnly, 2, "mc_obs_nthreads_mpi"),
            (std::vector<std::size_t>{1, 1}));
  EXPECT_EQ(nthreads_of(ScfAlgorithm::kSharedFock, 1, "mc_obs_nthreads_shared"),
            (std::vector<std::size_t>{2, 2}));
}

TEST(Profile, ParallelResultCarriesPerRankWaitTimes) {
  ObsFlagGuard guard;
  const std::string base = ::testing::TempDir() + "mc_obs_waits";
  ParallelScfConfig cfg;
  cfg.algorithm = ScfAlgorithm::kMpiOnly;
  cfg.nranks = 2;
  cfg.nthreads = 1;
  cfg.basis = "STO-3G";
  cfg.scf.max_iterations = 3;
  cfg.scf.profile_path = base;
  const ParallelScfResult res =
      run_parallel_scf(chem::builders::water(), cfg);
  ASSERT_EQ(res.dlb_wait_seconds_per_rank.size(), 2u);
  ASSERT_EQ(res.gsum_seconds_per_rank.size(), 2u);
  for (int r = 0; r < 2; ++r) {
    // Every rank claimed from the counter and hit the gsumf reduction at
    // least once per iteration, so both channels accumulated time.
    EXPECT_GT(res.dlb_wait_seconds_per_rank[static_cast<std::size_t>(r)],
              0.0);
    EXPECT_GT(res.gsum_seconds_per_rank[static_cast<std::size_t>(r)], 0.0);
  }
}

}  // namespace
}  // namespace mc::core
