// Campaign snapshot forking: a warm-up-heavy campaign run with snapshot
// forking must produce a report byte-identical to the cold run that
// pays every warm-up — at 1 and 8 threads, under both scheduler
// policies, and regardless of how trials land on the warm-up cache.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hpp"
#include "sim/kernel.hpp"
#include "sim/logger.hpp"
#include "soc/topologies.hpp"

namespace {

// A warm-up-heavy trial prototype: the warm-up (1000 cycles) is longer
// than the whole fault window (inject <= 150 + detect 600), the regime
// the fork cache is built for.
campaign::TrialSpec warm_proto(sim::sched::SchedPolicy policy) {
  campaign::TrialSpec p;
  p.desc = soc::ip_testbench_desc();
  p.desc.policy = policy;
  p.desc.managers.front().seed = 0xF00D;
  p.cfg.variant = tmu::Variant::kFullCounter;
  p.cfg.tc_total_budget = 200;
  p.point = fault::FaultPoint::kAwReadyStuck;
  p.traffic.enabled = true;
  p.traffic.p_new_txn = 0.3;
  p.traffic.len_max = 7;
  p.warmup_cycles = 1000;
  p.inject_delay_max = 150;
  p.detect_budget = 600;
  return p;
}

std::vector<campaign::Scenario> warm_scenarios(
    sim::sched::SchedPolicy policy) {
  campaign::TrialSpec a = warm_proto(policy);
  campaign::TrialSpec b = warm_proto(policy);
  // Second scenario differs in a warm-up-relevant field, so the cache
  // must keep two groups apart (same desc, different warm-up length).
  b.warmup_cycles = 700;
  b.point = fault::FaultPoint::kBValidStuck;
  return {campaign::make_scenario("warm-a", a, 4),
          campaign::make_scenario("warm-b", b, 3)};
}

campaign::Report run_campaign(const std::vector<campaign::Scenario>& s,
                              unsigned threads, bool fork) {
  campaign::EngineOptions opts;
  opts.threads = threads;
  return campaign::Engine(opts).run(
      s, fork ? campaign::make_forking_trial_fn()
              : campaign::TrialFn(campaign::run_fault_trial));
}

TEST(SnapshotFork, ForkedReportByteIdenticalToCold) {
  for (const sim::sched::SchedPolicy policy :
       {sim::sched::SchedPolicy::kEventDriven,
        sim::sched::SchedPolicy::kFullSweep}) {
    const std::vector<campaign::Scenario> s = warm_scenarios(policy);
    const std::string cold = run_campaign(s, 1, false).to_json();
    EXPECT_EQ(run_campaign(s, 1, true).to_json(), cold);
    EXPECT_EQ(run_campaign(s, 8, true).to_json(), cold);
    // Cold execution is itself thread-count-invariant (pinned
    // elsewhere); re-checked here so the chain fork@8 == cold@1 holds
    // by transitivity through an in-test witness.
    EXPECT_EQ(run_campaign(s, 8, false).to_json(), cold);
  }
}

TEST(SnapshotFork, WarmupZeroPassesThroughToColdPath) {
  // Without a warm-up phase there is nothing to share; the forking
  // runner must behave exactly like run_fault_trial (and byte-preserve
  // the historical seed-in-desc elaboration).
  campaign::TrialSpec p = warm_proto(sim::sched::SchedPolicy::kEventDriven);
  p.warmup_cycles = 0;
  const std::vector<campaign::Scenario> s = {
      campaign::make_scenario("cold-only", p, 3)};
  EXPECT_EQ(run_campaign(s, 2, true).to_json(),
            run_campaign(s, 2, false).to_json());
}

TEST(SnapshotFork, ExplicitTrialFnStaysCold) {
  // An engine handed an explicit TrialFn must run it verbatim — the
  // fork cache only backs the default trial body.
  const std::vector<campaign::Scenario> s =
      warm_scenarios(sim::sched::SchedPolicy::kEventDriven);
  campaign::EngineOptions opts;
  opts.threads = 2;
  const campaign::Report explicit_cold =
      campaign::Engine(opts).run(s, campaign::run_fault_trial);
  EXPECT_EQ(explicit_cold.to_json(), run_campaign(s, 2, false).to_json());
}

// Every TrialResult field, the metrics snapshot (exact doubles, not
// their JSON rendering) and the captured trace buffers.
void expect_same_trial(const campaign::TrialResult& a,
                       const campaign::TrialResult& b, const std::string& at) {
  EXPECT_EQ(a.detected, b.detected) << at;
  EXPECT_EQ(a.recovered, b.recovered) << at;
  EXPECT_EQ(a.traffic_resumed, b.traffic_resumed) << at;
  EXPECT_EQ(a.failed, b.failed) << at;
  EXPECT_EQ(a.error, b.error) << at;
  EXPECT_EQ(a.timed_out, b.timed_out) << at;
  EXPECT_EQ(a.inject_delay, b.inject_delay) << at;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << at;
  EXPECT_EQ(a.latency, b.latency) << at;
  EXPECT_EQ(a.cycles_run, b.cycles_run) << at;
  EXPECT_EQ(a.eval_passes, b.eval_passes) << at;
  EXPECT_EQ(a.completed_txns, b.completed_txns) << at;
  EXPECT_EQ(a.data_mismatches, b.data_mismatches) << at;
  EXPECT_EQ(a.error_responses, b.error_responses) << at;
  EXPECT_EQ(a.metrics.counters, b.metrics.counters) << at;
  ASSERT_EQ(a.metrics.stats.size(), b.metrics.stats.size()) << at;
  for (auto i = a.metrics.stats.begin(), j = b.metrics.stats.begin();
       i != a.metrics.stats.end(); ++i, ++j) {
    EXPECT_EQ(i->first, j->first) << at;
    EXPECT_EQ(i->second.count(), j->second.count()) << at << " " << i->first;
    EXPECT_EQ(i->second.mean(), j->second.mean()) << at << " " << i->first;
    EXPECT_EQ(i->second.m2(), j->second.m2()) << at << " " << i->first;
    EXPECT_EQ(i->second.min(), j->second.min()) << at << " " << i->first;
    EXPECT_EQ(i->second.max(), j->second.max()) << at << " " << i->first;
  }
  ASSERT_EQ(a.metrics.histograms.size(), b.metrics.histograms.size()) << at;
  for (auto i = a.metrics.histograms.begin(),
            j = b.metrics.histograms.begin();
       i != a.metrics.histograms.end(); ++i, ++j) {
    EXPECT_EQ(i->first, j->first) << at;
    EXPECT_EQ(i->second.bins(), j->second.bins()) << at << " " << i->first;
  }
  ASSERT_EQ(a.traces.size(), b.traces.size()) << at;
  for (std::size_t k = 0; k < a.traces.size(); ++k) {
    EXPECT_TRUE(a.traces[k] == b.traces[k])
        << at << ": trace " << a.traces[k].link << " differs ("
        << a.traces[k].records.size() << " vs " << b.traces[k].records.size()
        << " records)";
  }
}

TEST(SnapshotFork, PooledForksEqualColdTrialsFieldByField) {
  // Every fault point, each followed by a healthy soak, for both
  // variants under both scheduler policies, with recovery, a latency
  // probe and per-trial capture on: four warm-up groups. A pooled
  // netlist is restored after trials that detected, severed, reset and
  // recovered, and after trials that missed with their fault still
  // armed (every other point gets a 10-cycle detect budget).
  const sim::LogLevel saved = sim::global_log_level();
  sim::global_log_level() = sim::LogLevel::kOff;
  std::vector<campaign::TrialSpec> specs;
  for (int p = static_cast<int>(fault::FaultPoint::kAwReadyStuck);
       p <= static_cast<int>(fault::FaultPoint::kRReadyStuck); ++p) {
    for (const sim::sched::SchedPolicy policy :
         {sim::sched::SchedPolicy::kEventDriven,
          sim::sched::SchedPolicy::kFullSweep}) {
      for (const tmu::Variant v :
           {tmu::Variant::kFullCounter, tmu::Variant::kTinyCounter}) {
        campaign::TrialSpec t = warm_proto(policy);
        t.cfg.variant = v;
        t.point = static_cast<fault::FaultPoint>(p);
        t.detect_budget = p % 2 == 0 ? 600 : 10;
        t.soak_cycles = 600;
        t.exercise_recovery = true;
        t.trace_links = {"gen.out", "inj_s.in"};
        t.desc.probes.push_back({"gen.probe", "gen.out"});
        for (const fault::FaultPoint point :
             {t.point, fault::FaultPoint::kNone}) {
          t.point = point;
          t.seed = campaign::derive_trial_seed(0xF0CC, specs.size());
          specs.push_back(t);
        }
      }
    }
  }
  std::vector<campaign::TrialResult> cold;
  std::size_t recovered = 0, missed = 0;
  for (const campaign::TrialSpec& t : specs) {
    cold.push_back(campaign::run_fault_trial(t));
    recovered += cold.back().recovered;
    missed += t.point != fault::FaultPoint::kNone && !cold.back().detected;
  }
  // Not vacuous: both kinds of used netlist occur many times, and every
  // trial carries probe statistics and captured streams.
  EXPECT_GT(recovered, specs.size() / 8);
  EXPECT_GT(missed, specs.size() / 16);
  for (const campaign::TrialResult& r : cold) {
    ASSERT_FALSE(r.metrics.stats.empty());
    ASSERT_EQ(r.traces.size(), 2u);
  }

  const auto label = [&](std::size_t i) {
    return std::string(fault::to_string(specs[i].point)) + " trial " +
           std::to_string(i);
  };
  {
    // Serially: each group's one netlist serves all of its trials.
    const campaign::TrialFn forking = campaign::make_forking_trial_fn();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_same_trial(forking(specs[i]), cold[i], "serial " + label(i));
    }
  }
  {
    // From 8 threads: netlists move between workers through the pool.
    const campaign::TrialFn forking = campaign::make_forking_trial_fn();
    std::vector<campaign::TrialResult> got(specs.size());
    std::atomic<std::size_t> cursor{0};
    std::vector<std::thread> pool;
    for (int w = 0; w < 8; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = cursor.fetch_add(1)) < specs.size();) {
          got[i] = forking(specs[i]);
        }
      });
    }
    for (std::thread& th : pool) th.join();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_same_trial(got[i], cold[i], "8 threads " + label(i));
    }
  }
  sim::global_log_level() = saved;
}

TEST(SnapshotFork, WarmupTrialsStillDetectFaults) {
  // Sanity that the equivalence above is not vacuous: the warm-up-heavy
  // scenarios actually inject and detect.
  const campaign::Report r = run_campaign(
      warm_scenarios(sim::sched::SchedPolicy::kEventDriven), 4, true);
  EXPECT_EQ(r.total_trials(), 7u);
  EXPECT_GT(r.overall.detected, 0u);
}

}  // namespace
