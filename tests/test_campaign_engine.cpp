// campaign::Engine unit tests: deterministic sharding (a run with 1
// thread equals a run with N threads byte-for-byte), seed derivation,
// aggregation, JSON output, and error propagation from worker threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/bytes.hpp"
#include "sim/logger.hpp"
#include "soc/topologies.hpp"
#include "tmu/config.hpp"

namespace {

using fault::FaultPoint;
using tmu::Variant;

campaign::TrialSpec small_spec(Variant v, FaultPoint p) {
  campaign::TrialSpec spec;
  spec.cfg.variant = v;
  spec.cfg.tc_total_budget = 200;
  spec.cfg.adaptive.enabled = true;
  spec.cfg.adaptive.cycles_per_beat = 3;
  spec.cfg.adaptive.cycles_per_ahead = 6;
  spec.point = p;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.25;
  spec.traffic.max_outstanding = 6;
  spec.traffic.len_max = 7;
  spec.inject_delay_max = 300;
  spec.detect_budget = 4000;
  return spec;
}

std::vector<campaign::Scenario> small_campaign(std::size_t trials) {
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario(
      "fc/aw_ready_stuck",
      small_spec(Variant::kFullCounter, FaultPoint::kAwReadyStuck), trials));
  sc.push_back(campaign::make_scenario(
      "tc/r_valid_stuck",
      small_spec(Variant::kTinyCounter, FaultPoint::kRValidStuck), trials));
  return sc;
}

class CampaignEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = sim::global_log_level();
    sim::global_log_level() = sim::LogLevel::kOff;
  }
  void TearDown() override { sim::global_log_level() = saved_; }

 private:
  sim::LogLevel saved_ = sim::LogLevel::kWarn;
};

TEST_F(CampaignEngine, OneThreadEqualsNThreadsByteForByte) {
  const auto scenarios = small_campaign(12);
  campaign::Engine one({1, 0xABCDEFull});
  campaign::Engine four({4, 0xABCDEFull});
  EXPECT_EQ(one.threads(), 1u);
  EXPECT_EQ(four.threads(), 4u);
  const campaign::Report r1 = one.run(scenarios);
  const campaign::Report r4 = four.run(scenarios);
  EXPECT_EQ(r1.to_json(), r4.to_json());
  // Per-trial results agree too, not just the aggregates.
  ASSERT_EQ(r1.results.size(), r4.results.size());
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].detected, r4.results[i].detected);
    EXPECT_EQ(r1.results[i].inject_delay, r4.results[i].inject_delay);
    EXPECT_EQ(r1.results[i].detect_cycle, r4.results[i].detect_cycle);
    EXPECT_EQ(r1.results[i].latency, r4.results[i].latency);
    EXPECT_EQ(r1.results[i].cycles_run, r4.results[i].cycles_run);
    EXPECT_EQ(r1.results[i].eval_passes, r4.results[i].eval_passes);
  }
}

TEST_F(CampaignEngine, DerivedSeedsAreDistinctPerTrial) {
  const auto scenarios = small_campaign(16);
  campaign::Engine eng({2, 0x1234ull});
  const campaign::Report rep = eng.run(scenarios);
  // Distinct seeds show up as distinct injection-delay draws; with 32
  // trials over [0, 300] at least a handful must differ.
  std::set<std::uint64_t> delays;
  for (const auto& r : rep.results) delays.insert(r.inject_delay);
  EXPECT_GT(delays.size(), 8u);
}

TEST_F(CampaignEngine, DifferentBaseSeedsGiveDifferentCampaigns) {
  const auto scenarios = small_campaign(8);
  campaign::Engine a({2, 1ull});
  campaign::Engine b({2, 2ull});
  EXPECT_NE(a.run(scenarios).to_json(), b.run(scenarios).to_json());
}

TEST_F(CampaignEngine, FullCoverageAndAggregation) {
  const auto scenarios = small_campaign(10);
  campaign::Engine eng({0, 0xC0FFEEull});  // hardware concurrency
  const campaign::Report rep = eng.run(scenarios);
  ASSERT_EQ(rep.scenarios.size(), 2u);
  EXPECT_EQ(rep.total_trials(), 20u);
  for (const auto& sc : rep.scenarios) {
    EXPECT_EQ(sc.trials, 10u);
    EXPECT_EQ(sc.detected, 10u) << sc.label;  // P1: always detected
    EXPECT_EQ(sc.latency.count(), 10u);
    EXPECT_GT(sc.latency.mean(), 0.0);
    EXPECT_LE(sc.latency.min(), sc.latency.mean());
    EXPECT_LE(sc.latency.mean(), sc.latency.max());
    EXPECT_EQ(sc.latency_hist.total(), 10u);
    EXPECT_GT(sc.total_cycles, 0u);
    EXPECT_GT(sc.total_eval_passes, 0u);
  }
}

TEST_F(CampaignEngine, HealthySoakHasNoFalsePositives) {
  campaign::TrialSpec spec =
      small_spec(Variant::kFullCounter, FaultPoint::kNone);
  spec.soak_cycles = 3000;
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("healthy", spec, 6));
  campaign::Engine eng({3, 0xFEEDull});
  const campaign::Report rep = eng.run(sc);
  EXPECT_EQ(rep.scenarios[0].false_positives, 0u);
  EXPECT_EQ(rep.scenarios[0].detected, 0u);
  for (const auto& r : rep.results) {
    EXPECT_GT(r.completed_txns, 50u);
    EXPECT_EQ(r.data_mismatches, 0u);
    EXPECT_EQ(r.error_responses, 0u);
  }
}

TEST_F(CampaignEngine, CustomTrialFnAndJsonShape) {
  // The engine is generic over the trial body.
  campaign::TrialSpec proto;
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("synthetic \"quoted\"", proto, 5));
  campaign::Engine eng({2, 7ull});
  const campaign::Report rep =
      eng.run(sc, [](const campaign::TrialSpec& s) {
        campaign::TrialResult r;
        r.detected = false;  // healthy scenario path (point == kNone)
        r.cycles_run = s.seed % 100;
        return r;
      });
  EXPECT_EQ(rep.total_trials(), 5u);
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"schema\": \"tmu-campaign-report-v3\""),
            std::string::npos);
  EXPECT_NE(json.find("synthetic \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"false_positives\": 0"), std::string::npos);
  // v2: every summary names the topology its trials elaborated
  // (default TrialSpec -> the IP-level testbench desc) plus its
  // 64-bit fingerprint as a hex string.
  EXPECT_NE(json.find("\"topology\": \"ip_testbench\""), std::string::npos);
  char hash_field[64];
  std::snprintf(hash_field, sizeof hash_field,
                "\"topology_hash\": \"%016llx\"",
                static_cast<unsigned long long>(
                    soc::ip_testbench_desc().hash()));
  EXPECT_NE(json.find(hash_field), std::string::npos);
}

TEST_F(CampaignEngine, TrialOrderAndSeedsAcrossEmptyScenarios) {
  // Global trial i is the i-th spec in scenario order, empty scenarios
  // skipped; an explicit seed is kept and seed 0 becomes
  // derive_trial_seed(base, i): in flatten_trials() and in Engine::run
  // at any thread count.
  std::vector<campaign::Scenario> sc(5);
  std::vector<std::uint64_t> seeds;
  for (const std::size_t si : {0, 2, 3}) {
    for (int k = 0; k < 3; ++k) {
      const std::uint64_t i = seeds.size();
      campaign::TrialSpec t;
      t.inject_delay_max = i;
      t.seed = si == 2 && k != 1 ? 1000 + i : 0;
      seeds.push_back(t.seed != 0 ? t.seed
                                  : campaign::derive_trial_seed(7ull, i));
      sc[si].trials.push_back(t);
    }
  }
  const std::vector<campaign::TrialSpec> flat =
      campaign::flatten_trials(sc, 7ull);
  ASSERT_EQ(flat.size(), seeds.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat[i].inject_delay_max, i) << i;
    EXPECT_EQ(flat[i].seed, seeds[i]) << i;
  }
  for (const unsigned threads : {1u, 3u}) {
    campaign::Engine eng({threads, 7ull});
    const campaign::Report rep =
        eng.run(sc, [](const campaign::TrialSpec& s) {
          campaign::TrialResult r;
          r.cycles_run = s.seed;
          r.latency = s.inject_delay_max;
          return r;
        });
    ASSERT_EQ(rep.results.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      EXPECT_EQ(rep.results[i].cycles_run, seeds[i]) << i;
      EXPECT_EQ(rep.results[i].latency, i) << i;
    }
  }
}

TEST_F(CampaignEngine, MixedTopologiesAreReportedAsMixed) {
  campaign::TrialSpec a;  // default ip_testbench
  campaign::TrialSpec b;
  b.desc = soc::grid_desc(2, 2, 1);
  campaign::Scenario sc;
  sc.label = "mixed_topo";
  sc.trials = {a, b};
  campaign::Engine eng({1, 3ull});
  const campaign::Report rep =
      eng.run({sc}, [](const campaign::TrialSpec&) {
        return campaign::TrialResult{};
      });
  EXPECT_EQ(rep.scenarios[0].topology, "mixed");
  EXPECT_EQ(rep.scenarios[0].topology_hash, 0u);
  EXPECT_EQ(rep.overall.topology, "mixed");
}

TEST_F(CampaignEngine, ThrowingTrialIsCapturedAndCampaignCompletes) {
  // A throwing trial must not abort the campaign: the failure lands in
  // the trial's own result slot and the scenario summary counts it.
  campaign::TrialSpec proto;
  campaign::TrialSpec bad = proto;
  bad.soak_cycles = 0;  // the trial fn's failure trigger
  std::vector<campaign::Scenario> mixed;
  mixed.push_back(campaign::make_scenario("boom", bad, 8));
  mixed.push_back(campaign::make_scenario("fine", proto, 4));
  campaign::Engine eng({2, 9ull});
  const campaign::Report rep2 =
      eng.run(mixed, [](const campaign::TrialSpec& s) -> campaign::TrialResult {
        if (s.soak_cycles == 0) throw std::runtime_error("trial blew up");
        campaign::TrialResult r;
        r.cycles_run = 10;
        return r;
      });
  ASSERT_EQ(rep2.results.size(), 12u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(rep2.results[i].failed) << i;
    EXPECT_EQ(rep2.results[i].error, "trial blew up") << i;
    EXPECT_EQ(rep2.results[i].cycles_run, 0u) << i;
  }
  for (std::size_t i = 8; i < 12; ++i) {
    EXPECT_FALSE(rep2.results[i].failed) << i;
  }
  EXPECT_EQ(rep2.scenarios[0].failed_trials, 8u);
  EXPECT_EQ(rep2.scenarios[0].false_positives, 0u);
  EXPECT_EQ(rep2.scenarios[1].failed_trials, 0u);
  EXPECT_EQ(rep2.overall.failed_trials, 8u);
  // The counts surface in the JSON report.
  EXPECT_NE(rep2.to_json().find("\"failed_trials\": 8"), std::string::npos);
}

TEST_F(CampaignEngine, InvertedTrafficOverrideFailsTheTrial) {
  // TrialSpec::traffic arrives in spec JSON. An inverted range would
  // divide by zero in Rng::range on the first random transaction; the
  // override must fail the trial by name instead, cold and forked.
  campaign::TrialSpec spec =
      small_spec(Variant::kFullCounter, FaultPoint::kAwReadyStuck);
  spec.traffic.p_new_txn = 1.0;
  spec.traffic.len_min = 1;
  spec.traffic.len_max = 0;
  const std::string want =
      "run_fault_trial: traffic override has an inverted range: "
      "len_min 1 > len_max 0";
  try {
    campaign::run_fault_trial(spec);
    FAIL() << "the trial ran with len_min > len_max";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
  campaign::TrialSpec warm = spec;
  warm.warmup_cycles = 100;
  for (const bool fork : {false, true}) {
    campaign::EngineOptions opts;
    opts.threads = 2;
    const campaign::Report rep = campaign::Engine(opts).run(
        {campaign::make_scenario("cold", spec, 2),
         campaign::make_scenario("warm", warm, 3)},
        fork ? campaign::make_forking_trial_fn()
             : campaign::TrialFn(campaign::run_fault_trial));
    ASSERT_EQ(rep.results.size(), 5u);
    for (const campaign::TrialResult& r : rep.results) {
      EXPECT_TRUE(r.failed) << "fork " << fork;
      EXPECT_EQ(r.error, want) << "fork " << fork;
    }
  }
}

TEST_F(CampaignEngine, WriteJsonRoundTrips) {
  const auto scenarios = small_campaign(3);
  campaign::Engine eng({1, 5ull});
  const campaign::Report rep = eng.run(scenarios);
  const std::string path = ::testing::TempDir() + "campaign_test.json";
  ASSERT_TRUE(rep.write_json(path));
  std::string written;
  ASSERT_EQ(sim::bytes::read_file(path, written), sim::bytes::FileStatus::kOk);
  EXPECT_EQ(written, rep.to_json());
}

TEST_F(CampaignEngine, WriteJsonToAnUnwritablePathFails) {
  EXPECT_FALSE(campaign::Report{}.write_json("/nonexistent/dir/campaign.json"));
}

}  // namespace
