// campaign::remote tests: spec serialization (round-trip + hash
// sensitivity fuzz), partial-report slices (round-trip, checksum and
// corruption rejection), the byte-identical merge guarantee across
// arbitrary shard splits and arrival orders, and the fault-tolerant
// Dispatcher — including real forked campaign_worker processes that
// crash, hang and emit garbage mid-campaign (TMU_WORKER_FAIL).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/remote.hpp"
#include "sim/logger.hpp"
#include "soc/topologies.hpp"
#include "tmu/config.hpp"

namespace {

using campaign::remote::CampaignSpec;
using campaign::remote::Dispatcher;
using campaign::remote::DispatcherOptions;
using campaign::remote::ReportSlice;
using fault::FaultPoint;
using tmu::Variant;

#ifndef TMU_CAMPAIGN_WORKER_BIN
#define TMU_CAMPAIGN_WORKER_BIN ""
#endif

// ---------------------------------------------------------------------------
// Fixtures and helpers
// ---------------------------------------------------------------------------

class CampaignRemote : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = sim::global_log_level();
    sim::global_log_level() = sim::LogLevel::kOff;
    unsetenv("TMU_WORKER_FAIL");
    unsetenv("TMU_WORKER_FAIL_TOKEN");
  }
  void TearDown() override {
    sim::global_log_level() = saved_;
    unsetenv("TMU_WORKER_FAIL");
    unsetenv("TMU_WORKER_FAIL_TOKEN");
  }

 private:
  sim::LogLevel saved_ = sim::LogLevel::kWarn;
};

campaign::TrialSpec proto(Variant v, FaultPoint p) {
  campaign::TrialSpec spec;
  spec.cfg.variant = v;
  spec.cfg.tc_total_budget = 200;
  spec.cfg.adaptive.cycles_per_beat = 3;
  spec.cfg.adaptive.cycles_per_ahead = 6;
  spec.point = p;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.25;
  spec.traffic.max_outstanding = 6;
  spec.traffic.len_max = 7;
  spec.inject_delay_max = 300;
  spec.detect_budget = 3000;
  return spec;
}

/// A small mixed campaign: two fault scenarios (both variants), one
/// healthy soak, and one scenario on a second topology — so spec files
/// carry a two-entry topology table and RLE trial runs.
CampaignSpec mixed_spec(std::size_t trials_per_scenario = 4) {
  CampaignSpec spec;
  spec.base_seed = 0xA5A5ull;
  spec.scenarios.push_back(campaign::make_scenario(
      "fc/aw_ready_stuck", proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck),
      trials_per_scenario));
  spec.scenarios.push_back(campaign::make_scenario(
      "tc/r_valid_stuck", proto(Variant::kTinyCounter, FaultPoint::kRValidStuck),
      trials_per_scenario));
  campaign::TrialSpec healthy = proto(Variant::kFullCounter, FaultPoint::kNone);
  healthy.soak_cycles = 2000;
  spec.scenarios.push_back(
      campaign::make_scenario("healthy", healthy, trials_per_scenario));
  campaign::TrialSpec grid = proto(Variant::kFullCounter, FaultPoint::kNone);
  grid.desc = soc::grid_desc(2, 2, 1);  // second topology-table entry
  spec.scenarios.push_back(campaign::make_scenario("grid", grid, 2));
  return spec;
}

/// Fast synthetic trial body for serde/merge tests: no netlist, but
/// rich deterministic results — fractional doubles through the stats
/// path, histograms, failures and timeouts — purely from the seed
/// (which the engine derives from the global trial index).
campaign::TrialResult synthetic_trial(const campaign::TrialSpec& s) {
  if (s.seed % 7 == 0) throw std::runtime_error("synthetic failure");
  campaign::TrialResult r;
  r.detected = s.point != FaultPoint::kNone && s.seed % 3 != 0;
  r.recovered = r.detected && s.exercise_recovery;
  r.timed_out = s.seed % 11 == 0;
  r.inject_delay = s.seed % 97;
  r.detect_cycle = 100 + s.seed % 1000;
  r.latency = 1 + s.seed % 41;
  r.cycles_run = 1000 + s.seed % 255;
  r.eval_passes = 3 * r.cycles_run;
  r.completed_txns = s.seed % 50;
  r.metrics.counters["gen.txns"] = s.seed % 1000;
  auto& lat = r.metrics.stats["probe.lat"];
  for (int i = 0; i < 5; ++i) {
    lat.add(0.1 + static_cast<double>((s.seed >> i) % 100) / 7.0);
  }
  for (int i = 0; i < 8; ++i) {
    r.metrics.histograms["probe.occ"].add((s.seed >> i) % 6);
  }
  return r;
}

campaign::Report engine_report(const CampaignSpec& spec,
                               const campaign::TrialFn& fn) {
  return campaign::Engine({1, spec.base_seed}).run(spec.scenarios, fn);
}

/// Slices the campaign at the given cut points (plus [last, total)),
/// via run_range with the synthetic body.
std::vector<ReportSlice> slice_at(const CampaignSpec& spec,
                                  std::vector<std::uint64_t> cuts,
                                  const campaign::TrialFn& fn) {
  cuts.insert(cuts.begin(), 0);
  cuts.push_back(spec.total_trials());
  std::vector<ReportSlice> slices;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    slices.push_back(
        campaign::remote::run_range(spec, cuts[i], cuts[i + 1], {}, fn));
  }
  return slices;
}

// ---------------------------------------------------------------------------
// Spec serialization
// ---------------------------------------------------------------------------

TEST_F(CampaignRemote, SpecRoundTripsByteIdentical) {
  const CampaignSpec spec = mixed_spec();
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"schema\": \"tmu-campaign-spec-v1\""),
            std::string::npos);
  const CampaignSpec back = CampaignSpec::from_json(json);
  EXPECT_TRUE(back == spec);
  EXPECT_EQ(back.to_json(), json);
  EXPECT_EQ(back.hash(), spec.hash());
  EXPECT_EQ(back.topologies_hash(), spec.topologies_hash());
  EXPECT_EQ(spec.total_trials(), 14u);
}

TEST_F(CampaignRemote, SpecRunLengthEncodesIdenticalTrials) {
  // 4 scenarios, 14 trials, but only one run entry per scenario: count
  // appears, and the doc stays small.
  const CampaignSpec spec = mixed_spec();
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"count\": 4"), std::string::npos);
  // Two distinct topologies -> a two-entry table, referenced by index.
  EXPECT_NE(json.find("\"topology\": 1"), std::string::npos);

  // An interleaved scenario (A A B A) must preserve order: 3 runs.
  CampaignSpec inter;
  campaign::Scenario sc;
  sc.label = "interleaved";
  campaign::TrialSpec a = proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck);
  campaign::TrialSpec b = a;
  b.detect_budget = 1234;
  sc.trials = {a, a, b, a};
  inter.scenarios = {sc};
  const CampaignSpec back = CampaignSpec::from_json(inter.to_json());
  EXPECT_TRUE(back == inter);
  ASSERT_EQ(back.scenarios[0].trials.size(), 4u);
  EXPECT_EQ(back.scenarios[0].trials[2].detect_budget, 1234u);
}

TEST_F(CampaignRemote, SpecHashIsSensitiveToEveryField) {
  // Fuzz the hash: each single-field mutation must change the campaign
  // fingerprint (otherwise a slice from a drifted spec could merge).
  const CampaignSpec base = mixed_spec();
  const std::uint64_t h0 = base.hash();
  std::vector<std::function<void(CampaignSpec&)>> mutations = {
      [](CampaignSpec& s) { s.base_seed ^= 1; },
      [](CampaignSpec& s) { s.scenarios[0].label += "x"; },
      [](CampaignSpec& s) { s.scenarios[0].trials.pop_back(); },
      [](CampaignSpec& s) { s.scenarios.pop_back(); },
      [](CampaignSpec& s) { s.scenarios[0].trials[1].seed = 77; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].cfg.tc_total_budget++; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].cfg.variant = Variant::kTinyCounter; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].cfg.adaptive.enabled = false; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].point = FaultPoint::kBValidStuck; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].traffic.p_new_txn = 0.75; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].traffic.len_max = 15; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].inject_delay_max++; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].detect_budget++; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].soak_cycles++; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].max_cycles = 9999; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].warmup_cycles = 300; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].exercise_recovery = true; },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].trace_links.push_back("gen.out"); },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].desc = soc::grid_desc(3, 3, 1); },
      [](CampaignSpec& s) { s.scenarios[0].trials[0].desc.name += "x"; },
  };
  std::set<std::uint64_t> seen{h0};
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    CampaignSpec mutated = mixed_spec();
    mutations[i](mutated);
    const std::uint64_t h = mutated.hash();
    EXPECT_NE(h, h0) << "mutation " << i << " did not change the hash";
    // Round-trip stability holds for every mutant too.
    const CampaignSpec back = CampaignSpec::from_json(mutated.to_json());
    EXPECT_EQ(back.hash(), h) << "mutation " << i;
    seen.insert(h);
  }
  // Distinct mutations land on distinct hashes (no trivial collisions).
  EXPECT_EQ(seen.size(), mutations.size() + 1);
}

TEST_F(CampaignRemote, SpecTopologiesHashTracksOnlyTopologies) {
  const CampaignSpec base = mixed_spec();
  CampaignSpec other = mixed_spec();
  other.base_seed ^= 42;  // spec drift, same netlists
  EXPECT_NE(other.hash(), base.hash());
  EXPECT_EQ(other.topologies_hash(), base.topologies_hash());
  CampaignSpec retopo = mixed_spec();
  retopo.scenarios[3].trials[0].desc = soc::grid_desc(4, 4, 2);
  EXPECT_NE(retopo.topologies_hash(), base.topologies_hash());
}

TEST_F(CampaignRemote, SpecRejectsMalformedDocuments) {
  const CampaignSpec spec = mixed_spec();
  const std::string good = spec.to_json();
  // Wrong schema tag.
  {
    std::string bad = good;
    bad.replace(bad.find("tmu-campaign-spec-v1"), 20, "tmu-campaign-spec-v9");
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Unknown key.
  {
    std::string bad = good;
    bad.insert(bad.find("\"base_seed\""), "\"surprise\": 1,\n  ");
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Unknown fault point name.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"point\": \"aw_ready_stuck\"");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 25, "\"point\": \"warp_core_breach\"");
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Topology table hash that does not match its desc document.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"hash\": \"");
    ASSERT_NE(at, std::string::npos);
    bad[at + 10] = bad[at + 10] == '0' ? '1' : '0';
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Out-of-range topology reference.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"topology\": 1");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 13, "\"topology\": 7");
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Zero-count run.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"count\": 4");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 10, "\"count\": 0");
    EXPECT_THROW(CampaignSpec::from_json(bad), std::invalid_argument);
  }
  // Truncation and trailing garbage.
  EXPECT_THROW(CampaignSpec::from_json(good.substr(0, good.size() / 2)),
               std::invalid_argument);
  EXPECT_THROW(CampaignSpec::from_json(good + "x"), std::invalid_argument);
  // Nesting deep enough to exhaust the stack of an unbounded parser.
  EXPECT_THROW(CampaignSpec::from_json(std::string(1'000'000, '[')),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Report slices
// ---------------------------------------------------------------------------

TEST_F(CampaignRemote, SliceRoundTripsByteIdentical) {
  const CampaignSpec spec = mixed_spec();
  const ReportSlice slice =
      campaign::remote::run_range(spec, 3, 11, {}, synthetic_trial);
  EXPECT_EQ(slice.begin, 3u);
  EXPECT_EQ(slice.end, 11u);
  EXPECT_EQ(slice.spec_hash, spec.hash());
  EXPECT_EQ(slice.topology_hash, spec.topologies_hash());
  const std::string json = slice.to_json();
  EXPECT_NE(json.find("\"schema\": \"tmu-campaign-slice-v1\""),
            std::string::npos);
  const ReportSlice back = ReportSlice::from_json(json);
  EXPECT_EQ(back.to_json(), json);
  ASSERT_EQ(back.results.size(), 8u);
  for (std::size_t i = 0; i < back.results.size(); ++i) {
    EXPECT_EQ(back.results[i].latency, slice.results[i].latency);
    EXPECT_EQ(back.results[i].failed, slice.results[i].failed);
  }
}

TEST_F(CampaignRemote, SliceRejectsCorruption) {
  const CampaignSpec spec = mixed_spec();
  const ReportSlice slice =
      campaign::remote::run_range(spec, 0, 6, {}, synthetic_trial);
  const std::string good = slice.to_json();
  EXPECT_NO_THROW(ReportSlice::from_json(good));

  // A flipped digit inside a result value: still valid JSON, caught by
  // the checksum.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"cycles_run\": 1");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at + 14, 1, "2");
    EXPECT_THROW(ReportSlice::from_json(bad), std::invalid_argument);
  }
  // A tampered checksum field itself.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"checksum\": \"");
    ASSERT_NE(at, std::string::npos);
    bad[at + 13] = bad[at + 13] == 'a' ? 'b' : 'a';
    EXPECT_THROW(ReportSlice::from_json(bad), std::invalid_argument);
  }
  // Result-count / range disagreement.
  {
    std::string bad = good;
    const std::size_t at = bad.find("\"end\": 6");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 8, "\"end\": 7");
    EXPECT_THROW(ReportSlice::from_json(bad), std::invalid_argument);
  }
  // Plain garbage (what a corrupt worker emits) and truncation.
  EXPECT_THROW(ReportSlice::from_json("{ this is not a report slice ]\n"),
               std::invalid_argument);
  EXPECT_THROW(ReportSlice::from_json(good.substr(0, good.size() - 40)),
               std::invalid_argument);
  // A well-formed but 200,000-deep document.
  EXPECT_THROW(ReportSlice::from_json(std::string(200'000, '[') +
                                      std::string(200'000, ']')),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Byte-identical merge
// ---------------------------------------------------------------------------

TEST_F(CampaignRemote, MergeIsByteIdenticalForAnyShardSplit) {
  const CampaignSpec spec = mixed_spec();  // 14 trials
  const std::string expected = engine_report(spec, synthetic_trial).to_json();
  ASSERT_NE(expected.find("\"failed_trials\""), std::string::npos);

  const std::vector<std::vector<std::uint64_t>> splits = {
      {},                            // 1 slice: the whole campaign
      {7},                           // 2 even slices
      {5, 9},                        // 3 uneven slices
      {1, 2, 3, 8, 12, 13},          // 7 slices, very uneven
      {4, 4, 10},                    // contains an empty slice
  };
  for (const auto& cuts : splits) {
    std::vector<ReportSlice> slices = slice_at(spec, cuts, synthetic_trial);
    // Out-of-order arrival: reverse + rotate before merging.
    std::reverse(slices.begin(), slices.end());
    if (slices.size() > 2) {
      std::rotate(slices.begin(), slices.begin() + 1, slices.end());
    }
    const campaign::Report merged =
        campaign::remote::merge_slices(spec, slices);
    EXPECT_EQ(merged.to_json(), expected)
        << "split of " << slices.size() << " slices diverged";
  }
}

TEST_F(CampaignRemote, MergeIsByteIdenticalAfterSliceSerialization) {
  // The full remote path: every slice serialized and reparsed (as if it
  // crossed a process/file boundary) before merging.
  const CampaignSpec spec = mixed_spec();
  const std::string expected = engine_report(spec, synthetic_trial).to_json();
  std::vector<ReportSlice> slices = slice_at(spec, {3, 9}, synthetic_trial);
  std::vector<ReportSlice> reparsed;
  for (const ReportSlice& s : slices) {
    reparsed.push_back(ReportSlice::from_json(s.to_json()));
  }
  EXPECT_EQ(campaign::remote::merge_slices(spec, reparsed).to_json(),
            expected);
}

TEST_F(CampaignRemote, MergeMatchesEngineOnRealFaultTrials) {
  // Real run_fault_trial netlists, split across slices: the merged
  // report must equal the in-process engine's byte-for-byte.
  CampaignSpec spec;
  spec.base_seed = 0xD15EA5Eull;
  spec.scenarios.push_back(campaign::make_scenario(
      "fc/b_valid_stuck", proto(Variant::kFullCounter, FaultPoint::kBValidStuck),
      3));
  spec.scenarios.push_back(campaign::make_scenario(
      "tc/aw_ready_stuck", proto(Variant::kTinyCounter, FaultPoint::kAwReadyStuck),
      3));
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  std::vector<ReportSlice> slices =
      slice_at(spec, {2, 5}, campaign::run_fault_trial);
  std::swap(slices[0], slices[2]);
  EXPECT_EQ(campaign::remote::merge_slices(spec, slices).to_json(), expected);
}

TEST_F(CampaignRemote, MergeRejectsForeignOverlappingOrMissingSlices) {
  const CampaignSpec spec = mixed_spec();
  const std::vector<ReportSlice> slices =
      slice_at(spec, {7}, synthetic_trial);

  // A slice from a different campaign spec.
  {
    std::vector<ReportSlice> bad = slices;
    bad[0].spec_hash ^= 1;
    EXPECT_THROW(campaign::remote::merge_slices(spec, bad),
                 std::invalid_argument);
  }
  // A slice claiming different topologies.
  {
    std::vector<ReportSlice> bad = slices;
    bad[1].topology_hash ^= 1;
    EXPECT_THROW(campaign::remote::merge_slices(spec, bad),
                 std::invalid_argument);
  }
  // Gap: second half missing.
  EXPECT_THROW(campaign::remote::merge_slices(spec, {slices[0]}),
               std::invalid_argument);
  // Overlap: first half twice plus the second half.
  EXPECT_THROW(
      campaign::remote::merge_slices(spec, {slices[0], slices[0], slices[1]}),
      std::invalid_argument);
  // Range/result-count disagreement.
  {
    std::vector<ReportSlice> bad = slices;
    bad[0].results.pop_back();
    EXPECT_THROW(campaign::remote::merge_slices(spec, bad),
                 std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------------

/// A campaign of real fault trials, sized for multi-process tests.
CampaignSpec dispatcher_spec() {
  CampaignSpec spec;
  spec.base_seed = 0xFA117ull;
  spec.scenarios.push_back(campaign::make_scenario(
      "fc/aw_ready_stuck", proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck),
      8));
  spec.scenarios.push_back(campaign::make_scenario(
      "tc/r_valid_stuck", proto(Variant::kTinyCounter, FaultPoint::kRValidStuck),
      8));
  return spec;
}

std::string worker_bin() { return TMU_CAMPAIGN_WORKER_BIN; }

TEST_F(CampaignRemote, DispatcherInProcessFallbackMatchesEngine) {
  const CampaignSpec spec = dispatcher_spec();
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  DispatcherOptions opts;
  opts.worker_binary = "";  // no processes: pure in-process slicing
  opts.workers = 3;
  opts.shards = 5;
  Dispatcher d(opts);
  EXPECT_EQ(d.run(spec).to_json(), expected);
  EXPECT_EQ(d.stats().spawned, 0u);
}

TEST_F(CampaignRemote, DispatcherRunsRealWorkersByteIdentical) {
  ASSERT_FALSE(worker_bin().empty());
  const CampaignSpec spec = dispatcher_spec();
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  DispatcherOptions opts;
  opts.worker_binary = worker_bin();
  opts.workers = 4;
  opts.poll_interval_ms = 5;
  Dispatcher d(opts);
  EXPECT_EQ(d.run(spec).to_json(), expected);
  EXPECT_GE(d.stats().spawned, 4u);
  EXPECT_EQ(d.stats().crashed, 0u);
  EXPECT_EQ(d.stats().hung, 0u);
  EXPECT_EQ(d.stats().corrupt, 0u);
  EXPECT_EQ(d.stats().fallback_ranges, 0u);
}

TEST_F(CampaignRemote, DispatcherSurvivesCrashHangAndCorruptWorkers) {
  // The acceptance gate: one worker crashes, one hangs, one emits
  // garbage — all mid-campaign — and the merged report is still
  // byte-identical to the clean single-process run.
  ASSERT_FALSE(worker_bin().empty());
  const CampaignSpec spec = dispatcher_spec();  // 16 trials
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();

  const std::string token =
      ::testing::TempDir() + "remote_fail_token_" +
      std::to_string(::getpid());
  // 4 shards of 4 trials: the directives land in three different
  // workers' ranges; the fourth runs clean.
  setenv("TMU_WORKER_FAIL", "crash@1,hang@5,corrupt@9", 1);
  setenv("TMU_WORKER_FAIL_TOKEN", token.c_str(), 1);

  DispatcherOptions opts;
  opts.worker_binary = worker_bin();
  opts.workers = 4;
  opts.shards = 4;
  opts.poll_interval_ms = 5;
  opts.deadline_ms = 1500;  // reap the hung worker quickly
  opts.retry_backoff_ms = 10;
  Dispatcher d(opts);
  const campaign::Report rep = d.run(spec);
  EXPECT_EQ(rep.to_json(), expected);
  EXPECT_GE(d.stats().crashed, 1u);
  EXPECT_GE(d.stats().hung, 1u);
  EXPECT_GE(d.stats().corrupt, 1u);
  EXPECT_GE(d.stats().reissued, 3u);
  // Fail-once tokens: the re-issued ranges ran clean, no fallback.
  EXPECT_EQ(d.stats().fallback_ranges, 0u);
  for (int i = 0; i < 3; ++i) {
    std::filesystem::remove(token + "." + std::to_string(i));
  }
}

TEST_F(CampaignRemote, DispatcherDegradesToInProcessOnPersistentFailure) {
  // No fail-once token: the crash directive fires on every attempt, so
  // that range must exhaust its retries and degrade to in-process
  // execution — and the report still comes out byte-identical.
  ASSERT_FALSE(worker_bin().empty());
  const CampaignSpec spec = dispatcher_spec();
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  setenv("TMU_WORKER_FAIL", "crash@2", 1);

  DispatcherOptions opts;
  opts.worker_binary = worker_bin();
  opts.workers = 2;
  opts.shards = 4;
  opts.poll_interval_ms = 5;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 10;
  Dispatcher d(opts);
  EXPECT_EQ(d.run(spec).to_json(), expected);
  EXPECT_GE(d.stats().crashed, 2u);  // initial + one retry
  EXPECT_EQ(d.stats().fallback_ranges, 1u);
}

TEST_F(CampaignRemote, DispatcherSurvivesUnspawnableWorkerBinary) {
  // execv failing (bad path) shows up as instant crashes; every range
  // must degrade to in-process and the campaign still completes.
  const CampaignSpec spec = dispatcher_spec();
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  DispatcherOptions opts;
  opts.worker_binary = "/nonexistent/campaign_worker";
  opts.workers = 2;
  opts.shards = 2;
  opts.poll_interval_ms = 5;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 1;
  Dispatcher d(opts);
  EXPECT_EQ(d.run(spec).to_json(), expected);
  EXPECT_EQ(d.stats().fallback_ranges, 2u);
}

/// Trials with a warm-up phase: two fault groups and a healthy soak,
/// each its own warm-up group (the soak's warm-up length differs).
CampaignSpec warm_spec() {
  campaign::TrialSpec fc =
      proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck);
  fc.warmup_cycles = 600;
  campaign::TrialSpec tc =
      proto(Variant::kTinyCounter, FaultPoint::kRValidStuck);
  tc.warmup_cycles = 400;
  campaign::TrialSpec soak = proto(Variant::kFullCounter, FaultPoint::kNone);
  soak.warmup_cycles = 500;
  soak.soak_cycles = 1000;
  CampaignSpec spec;
  spec.base_seed = 0x3A7Dull;
  spec.scenarios = {campaign::make_scenario("fc/aw_ready_stuck", fc, 4),
                    campaign::make_scenario("tc/r_valid_stuck", tc, 4),
                    campaign::make_scenario("healthy", soak, 3)};
  return spec;
}

TEST_F(CampaignRemote, WarmedUpTrialsMatchEngineOnEveryRemotePath) {
  // run_range's default body forks each range's trials from one warm-up
  // per group, like Engine::run: merged slices, the in-process
  // dispatcher and forked workers all reproduce the engine's report.
  const CampaignSpec spec = warm_spec();
  const std::string expected =
      campaign::Engine({1, spec.base_seed}).run(spec.scenarios).to_json();
  EXPECT_EQ(
      campaign::remote::merge_slices(spec, slice_at(spec, {3, 7}, {}))
          .to_json(),
      expected);

  DispatcherOptions in_process;
  in_process.workers = 2;
  in_process.shards = 3;
  EXPECT_EQ(Dispatcher(in_process).run(spec).to_json(), expected);

  ASSERT_FALSE(worker_bin().empty());
  DispatcherOptions forked;
  forked.worker_binary = worker_bin();
  forked.workers = 3;
  forked.poll_interval_ms = 5;
  Dispatcher d(forked);
  EXPECT_EQ(d.run(spec).to_json(), expected);
  EXPECT_GE(d.stats().spawned, 3u);
  EXPECT_EQ(d.stats().crashed + d.stats().hung + d.stats().corrupt, 0u);
  EXPECT_EQ(d.stats().fallback_ranges, 0u);
}

}  // namespace
