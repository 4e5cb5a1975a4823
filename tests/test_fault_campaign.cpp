// Randomized fault-injection campaign (§III-A.3 "injecting random
// failures at key AXI transaction stages"), run through the parallel
// campaign::Engine: for every fault point, many trials with randomized
// injection delay under randomized background traffic. Properties:
//   P1  the TMU always detects the fault within a bound;
//   P2  after recovery, traffic flows again;
//   P3  with no fault armed, long random soaks never flag anything.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/logger.hpp"
#include "soc/topologies.hpp"
#include "tmu/config.hpp"

namespace {

using fault::FaultPoint;
using tmu::Variant;

tmu::TmuConfig campaign_cfg(Variant v) {
  tmu::TmuConfig cfg;
  cfg.variant = v;
  cfg.max_uniq_ids = 4;
  cfg.txn_per_uniq_id = 4;
  cfg.tc_total_budget = 200;
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 3;
  cfg.adaptive.cycles_per_ahead = 6;
  return cfg;
}

/// Worst-case cycles from fault activation to detection: the largest
/// adaptive budget any transaction can get in this setup, plus slack
/// for the fault to actually bite a transaction under random traffic.
constexpr std::uint64_t kDetectionBound = 3000;

campaign::TrialSpec trial_proto(Variant v, FaultPoint p) {
  campaign::TrialSpec spec;
  spec.cfg = campaign_cfg(v);
  spec.point = p;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.25;
  spec.traffic.max_outstanding = 6;
  spec.traffic.len_max = 7;
  spec.inject_delay_max = 400;
  spec.detect_budget = kDetectionBound;
  spec.exercise_recovery = true;  // P2 rides along in every trial
  return spec;
}

const std::vector<FaultPoint> kPoints = {
    FaultPoint::kAwReadyStuck, FaultPoint::kWReadyStuck,
    FaultPoint::kBValidStuck,  FaultPoint::kArReadyStuck,
    FaultPoint::kRValidStuck,  FaultPoint::kWValidStuck,
};

class FaultCampaign : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = sim::global_log_level();
    sim::global_log_level() = sim::LogLevel::kOff;
  }
  void TearDown() override { sim::global_log_level() = saved_; }

 private:
  sim::LogLevel saved_ = sim::LogLevel::kWarn;
};

TEST_F(FaultCampaign, AlwaysDetectsAndRecoversAcrossAllPoints) {
  constexpr std::size_t kTrialsPerPair = 6;
  std::vector<campaign::Scenario> scenarios;
  for (FaultPoint p : kPoints) {
    for (Variant v : {Variant::kFullCounter, Variant::kTinyCounter}) {
      const char* vs = v == Variant::kFullCounter ? "fc/" : "tc/";
      scenarios.push_back(campaign::make_scenario(
          vs + std::string(to_string(p)), trial_proto(v, p),
          kTrialsPerPair));
    }
  }
  campaign::Engine eng({0, 0x5EED5ull});  // hardware concurrency
  const campaign::Report rep = eng.run(scenarios);
  ASSERT_EQ(rep.scenarios.size(), kPoints.size() * 2);
  for (const auto& sc : rep.scenarios) {
    // P1: every trial detects within the bound.
    EXPECT_EQ(sc.detected, kTrialsPerPair) << sc.label;
    // P2: every trial recovers and traffic resumes afterwards.
    EXPECT_EQ(sc.recovered, kTrialsPerPair) << sc.label;
    EXPECT_EQ(sc.traffic_resumed, kTrialsPerPair) << sc.label;
    // Detection latency is positive and bounded.
    EXPECT_GT(sc.latency.count(), 0u) << sc.label;
    EXPECT_LE(sc.latency.max(), static_cast<double>(kDetectionBound))
        << sc.label;
  }
}

TEST_F(FaultCampaign, EngineRunMatchesSerialRun) {
  // The campaign itself is the determinism witness: same base seed, one
  // thread vs many, byte-identical report.
  std::vector<campaign::Scenario> scenarios;
  scenarios.push_back(campaign::make_scenario(
      "fc/b_valid_stuck",
      trial_proto(Variant::kFullCounter, FaultPoint::kBValidStuck), 8));
  const campaign::Report serial =
      campaign::Engine({1, 0xD00Dull}).run(scenarios);
  const campaign::Report parallel =
      campaign::Engine({4, 0xD00Dull}).run(scenarios);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST_F(FaultCampaign, NoFalsePositivesUnderRandomTraffic) {
  // P3: healthy soaks across several seeds, both variants.
  std::vector<campaign::Scenario> scenarios;
  for (Variant v : {Variant::kFullCounter, Variant::kTinyCounter}) {
    campaign::TrialSpec spec = trial_proto(v, FaultPoint::kNone);
    spec.exercise_recovery = false;
    spec.soak_cycles = 10000;
    const char* vs = v == Variant::kFullCounter ? "fc/healthy" : "tc/healthy";
    scenarios.push_back(campaign::make_scenario(vs, spec, 5));
  }
  campaign::Engine eng({0, 0xBEEFull});
  const campaign::Report rep = eng.run(scenarios);
  for (const auto& sc : rep.scenarios) {
    EXPECT_EQ(sc.false_positives, 0u) << sc.label;
  }
  for (const auto& r : rep.results) {
    EXPECT_GT(r.completed_txns, 200u);
    EXPECT_EQ(r.data_mismatches, 0u);
    EXPECT_EQ(r.error_responses, 0u);
  }
}

TEST_F(FaultCampaign, WatchdogClipsNeverDetectingTrial) {
  // A disabled TMU under an absurd detect budget would previously run
  // for 2^40 cycles; the max_cycles ceiling turns that into a named
  // timed_out result.
  campaign::TrialSpec spec =
      trial_proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck);
  spec.cfg.enabled = false;  // the TMU never flags
  spec.exercise_recovery = false;
  spec.inject_delay_max = 50;
  spec.detect_budget = std::uint64_t{1} << 40;
  spec.max_cycles = 3000;
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("wedged", spec, 3));
  const campaign::Report rep = campaign::Engine({2, 0x77ull}).run(sc);
  for (const auto& r : rep.results) {
    EXPECT_FALSE(r.detected);
    EXPECT_TRUE(r.timed_out);
    EXPECT_LE(r.cycles_run, 3000u);
  }
  EXPECT_EQ(rep.scenarios[0].timed_out, 3u);
  EXPECT_EQ(rep.scenarios[0].detected, 0u);
  EXPECT_NE(rep.to_json().find("\"timed_out\": 3"), std::string::npos);
}

TEST_F(FaultCampaign, WatchdogClipsOverlongHealthySoak) {
  campaign::TrialSpec spec = trial_proto(Variant::kFullCounter, FaultPoint::kNone);
  spec.exercise_recovery = false;
  spec.soak_cycles = 100000;
  spec.max_cycles = 1000;
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("clipped_soak", spec, 2));
  const campaign::Report rep = campaign::Engine({1, 0x99ull}).run(sc);
  for (const auto& r : rep.results) {
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.cycles_run, 1000u);
  }
  EXPECT_EQ(rep.scenarios[0].timed_out, 2u);
}

TEST_F(FaultCampaign, WatchdogDefaultNeverClipsBudgetedTrials) {
  // The derived ceiling covers everything the budgeted phases can use:
  // an ordinary campaign must report zero timeouts (and stay
  // byte-identical to pre-watchdog reports).
  std::vector<campaign::Scenario> scenarios;
  scenarios.push_back(campaign::make_scenario(
      "fc/aw_ready_stuck",
      trial_proto(Variant::kFullCounter, FaultPoint::kAwReadyStuck), 4));
  const campaign::Report rep =
      campaign::Engine({2, 0x5EED5ull}).run(scenarios);
  EXPECT_EQ(rep.scenarios[0].timed_out, 0u);
  EXPECT_EQ(rep.scenarios[0].detected, 4u);
}

/// The hierarchical Cheshire with the guard in front of the io-cluster
/// bridge, with the bridge's remap ID pool shrunk to `max_ids`.
soc::SocDesc bridge_desc(std::uint32_t max_ids) {
  soc::SocDesc d = soc::hierarchical_desc(campaign_cfg(Variant::kFullCounter),
                                          soc::HierGuardSite::kBridge);
  d.subordinates[1].cluster[0].bridge.max_ids = max_ids;
  return d;
}

/// Traffic aimed at the cluster's peripheral window, heavy enough to
/// exhaust a 2-entry bridge ID pool (4 distinct IDs, long bursts, many
/// outstanding).
axi::RandomTrafficConfig cluster_traffic() {
  axi::RandomTrafficConfig t;
  t.enabled = true;
  t.p_new_txn = 0.5;
  t.max_outstanding = 8;
  t.id_min = 0;
  t.id_max = 3;
  t.len_min = 3;
  t.len_max = 7;
  t.addr_min = soc::CheshireMap::kPeriphBase;
  t.addr_max = soc::CheshireMap::kPeriphBase + soc::CheshireMap::kPeriphSize - 8;
  return t;
}

TEST_F(FaultCampaign, BridgeBackPressureIsDetectedWithoutDeadlock) {
  // Saturating the io-cluster bridge's remap ID pool stalls the AW/AR
  // handshakes on the guarded link. The non-adaptive address-handshake
  // budget must flag that (under point == kNone it reports as a false
  // positive), the trial must still terminate, and a control with the
  // full-size pool must stay silent under the very same traffic. A
  // third, guard-less hierarchy pins failure capture on nested descs.
  campaign::TrialSpec saturated;
  saturated.desc = bridge_desc(2);
  saturated.cfg = campaign_cfg(Variant::kFullCounter);
  saturated.cfg.reset_on_fault = false;  // keep soaking after the flag
  saturated.point = FaultPoint::kNone;
  saturated.traffic = cluster_traffic();
  saturated.soak_cycles = 4000;

  campaign::TrialSpec control = saturated;
  control.desc = bridge_desc(16);  // stock pool: never saturates

  campaign::TrialSpec guardless = saturated;
  guardless.desc = bridge_desc(16);
  guardless.desc.guards.clear();  // run_fault_trial must throw, captured

  std::vector<campaign::Scenario> scenarios;
  scenarios.push_back(campaign::make_scenario("bridge/saturated", saturated, 4));
  scenarios.push_back(campaign::make_scenario("bridge/control", control, 4));
  scenarios.push_back(campaign::make_scenario("bridge/guardless", guardless, 2));
  const campaign::Report rep = campaign::Engine({0, 0xB1D6Eull}).run(scenarios);

  const campaign::ScenarioSummary& sat = rep.scenarios[0];
  EXPECT_EQ(sat.false_positives, 4u) << "ID-pool exhaustion went undetected";
  EXPECT_EQ(sat.failed_trials, 0u);
  const campaign::ScenarioSummary& ctl = rep.scenarios[1];
  EXPECT_EQ(ctl.false_positives, 0u)
      << "control flagged: detection is not attributable to the pool";
  EXPECT_EQ(ctl.failed_trials, 0u);
  const campaign::ScenarioSummary& gl = rep.scenarios[2];
  EXPECT_EQ(gl.failed_trials, 2u);

  // No deadlock anywhere: every (non-failed) trial ran its soak to the
  // watchdog-free end and kept completing transactions.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(rep.results[i].timed_out) << i;
    EXPECT_EQ(rep.results[i].cycles_run, 4000u) << i;
    EXPECT_GT(rep.results[i].completed_txns, 0u) << i;
  }
}

}  // namespace
