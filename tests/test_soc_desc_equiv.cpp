// Topology goldens: the SocBuilder elaborations of the paper's two
// netlists must reproduce the outcomes pinned in
// tests/data/soc_goldens/hashes.txt. That covers the Fig. 10 Cheshire
// SoC through random traffic, DMA streams, injected faults, recovery and
// idle phases (one digest per link and one over both TMUs' logs and the
// system counters, each scenario under both scheduler policies), the
// Fig. 8/9 IP-testbench fault trials (one digest of each trial's
// outcome fields), and an engine campaign over that testbench. Effort
// (eval passes, the sched.* metrics) stays out of every digest.
// tests/goldens.hpp says how a full run guards against unchecked keys
// and how TMU_GOLDENS_OUT re-pins them. This is the topology gate
// scripts/check.sh runs alongside the scheduler and crossbar gates.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/traffic_gen.hpp"
#include "campaign/campaign.hpp"
#include "fault/injector.hpp"
#include "goldens.hpp"
#include "sim/bytes.hpp"
#include "sim/logger.hpp"
#include "sim/state.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/idma.hpp"
#include "soc/reset_unit.hpp"
#include "soc/topologies.hpp"
#include "state_bytes.hpp"
#include "tmu/tmu.hpp"
#include "trace/recorder.hpp"

namespace {

using namespace axi;
using sim::sched::SchedPolicy;

// Injected faults legitimately provoke protocol warnings; keep the
// determinism-gate output clean.
const bool g_quiet = [] {
  sim::global_log_level() = sim::LogLevel::kOff;
  return true;
}();

goldens::Goldens g_goldens("soc_goldens");

using state_bytes::SaveBytes;

/// Appends a copy of `x` to the save stream.
template <typename T>
void put(sim::StateVisitor& v, T x) {
  visit(v, x);
}

std::uint64_t digest(const std::vector<unsigned char>& bytes) {
  return sim::bytes::fnv1a64(bytes.data(), bytes.size());
}

// ------------------------------------------------------------------
// Cheshire (Fig. 10)
// ------------------------------------------------------------------

/// The Cheshire links the goldens pin, by builder name: every manager
/// port, and each link of the LLC, Ethernet and peripheral chains.
constexpr const char* kCheshireLinks[] = {
    "cva6_0.out", "cva6_1.out", "idma.out",      "dma_engine.out",
    "llc.in",     "dram.in",    "inj_m.in",      "tmu.in",
    "inj_s.in",   "ethernet.in", "periph_tmu.in", "periph_inj.in",
    "periph.in",
};

/// cheshire_desc() elaborated under `policy`, with a recorder on every
/// pinned link.
struct Cheshire {
  std::vector<std::unique_ptr<trace::Recorder>> recs;
  std::unique_ptr<soc::Soc> soc;

  explicit Cheshire(SchedPolicy policy) {
    tmu::TmuConfig cfg;
    cfg.variant = tmu::Variant::kFullCounter;
    cfg.adaptive.enabled = true;
    soc::SocDesc d = soc::cheshire_desc(cfg);
    d.policy = policy;
    soc = soc::SocBuilder::build(d);
    for (const char* name : kCheshireLinks) {
      recs.push_back(std::make_unique<trace::Recorder>(
          std::string("rec_") + name, name, soc->link(name)));
      soc->sim().add(*recs.back());
    }
  }

  /// Both TMUs' fault and lifecycle logs and the system's progress
  /// counters, as one digest.
  std::uint64_t outcome_digest() {
    SaveBytes v;
    for (const char* t : {"tmu", "periph_tmu"}) {
      const tmu::Tmu& tmu = soc->get<tmu::Tmu>(t);
      put(v, tmu.fault_log());
      put(v, tmu.lifecycle_log());
      put(v, tmu.recoveries());
    }
    put(v, std::uint64_t{soc->get<TrafficGenerator>("cva6_0").completed()});
    put(v, std::uint64_t{soc->get<TrafficGenerator>("cva6_1").completed()});
    put(v, soc->get<soc::IdmaEngine>("dma_engine").beats_moved());
    put(v, soc->get<soc::EthernetPeripheral>("ethernet").hw_resets());
    put(v, soc->get<soc::EthernetPeripheral>("ethernet").frames_txed());
    put(v, soc->get<soc::LastLevelCache>("llc").hits());
    put(v, soc->get<soc::LastLevelCache>("llc").misses());
    put(v, soc->get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled());
    put(v, soc->get<soc::ResetUnit>("reset_unit").resets_performed());
    put(v, std::uint64_t{soc->get<axi::Crossbar>("xbar").decode_errors()});
    return digest(v.take_bytes());
  }

  /// Checks every link digest and the outcome digest of `scenario`.
  void check(const std::string& scenario) {
    for (const auto& r : recs) {
      g_goldens.check(scenario + "/" + r->buffer().link,
                      goldens::trace_digest(*r));
    }
    g_goldens.check(scenario + "/outcome", outcome_digest());
  }
};

constexpr SchedPolicy kPolicies[] = {SchedPolicy::kEventDriven,
                                     SchedPolicy::kFullSweep};

const char* policy_name(SchedPolicy p) {
  return p == SchedPolicy::kEventDriven ? "event-driven" : "full sweep";
}

// The full fault -> sever -> reset -> recover -> resume arc: random
// traffic and a DMA frame stream, the Ethernet MAC hanging mid-frame,
// then an idle phase and resumed traffic. Each scenario runs under both
// policies against the same keys.
TEST(SocDescEquiv, CheshireRecoveryMatchesGoldens) {
  for (const SchedPolicy p : kPolicies) {
    SCOPED_TRACE(policy_name(p));
    Cheshire net(p);
    TrafficGenerator& cva6_0 = net.soc->get<TrafficGenerator>("cva6_0");
    TrafficGenerator& cva6_1 = net.soc->get<TrafficGenerator>("cva6_1");
    fault::FaultInjector& inj_s = net.soc->get<fault::FaultInjector>("inj_s");
    RandomTrafficConfig rc;
    rc.enabled = true;
    rc.p_new_txn = 0.15;
    rc.addr_min = soc::CheshireMap::kDramBase;
    rc.addr_max = soc::CheshireMap::kDramBase + 0xFF00;
    cva6_0.set_random(rc);
    RandomTrafficConfig rc1 = rc;
    rc1.p_new_txn = 0.1;
    rc1.addr_min = soc::CheshireMap::kPeriphBase;
    rc1.addr_max = soc::CheshireMap::kPeriphBase + 0xF000;
    cva6_1.set_random(rc1);

    for (std::uint64_t c = 0; c < 2600; ++c) {
      if (c == 50) {
        net.soc->get<soc::IdmaEngine>("dma_engine")
            .submit({soc::CheshireMap::kDramBase,
                     soc::CheshireMap::kEthTxWindow, 400});
      }
      if (c == 150) inj_s.arm(fault::FaultPoint::kWReadyStuck, 150);
      if (c == 1200) inj_s.disarm();
      if (c == 1800) {  // idle the SoC: event-driven settles to zero work
        cva6_0.set_random({});
        cva6_1.set_random({});
      }
      if (c == 2200) cva6_0.set_random(rc);  // resume
      net.soc->sim().step();
    }
    // The scenario actually exercised the recovery loop.
    soc::Soc& s = *net.soc;
    EXPECT_GT(s.get<tmu::Tmu>("tmu").fault_log().size(), 0u);
    EXPECT_GT(s.get<soc::EthernetPeripheral>("ethernet").hw_resets(), 0u);
    EXPECT_GT(s.get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled(),
              0u);
    EXPECT_GT(cva6_0.completed(), 0u);
    net.check("cheshire_recovery");
  }
}

// A B-valid stall behind the Tiny-Counter peripheral TMU, hit by one
// poke among random DRAM traffic.
TEST(SocDescEquiv, CheshirePeriphStallMatchesGoldens) {
  for (const SchedPolicy p : kPolicies) {
    SCOPED_TRACE(policy_name(p));
    Cheshire net(p);
    RandomTrafficConfig rc;
    rc.enabled = true;
    rc.p_new_txn = 0.2;
    rc.addr_min = soc::CheshireMap::kDramBase;
    rc.addr_max = soc::CheshireMap::kDramBase + 0xFF00;
    net.soc->get<TrafficGenerator>("cva6_0").set_random(rc);
    for (std::uint64_t c = 0; c < 800; ++c) {
      if (c == 100) {
        net.soc->get<fault::FaultInjector>("periph_inj")
            .arm(fault::FaultPoint::kBValidStuck, 100);
        net.soc->get<TrafficGenerator>("cva6_1").push(
            TxnDesc{true, 1, soc::CheshireMap::kPeriphBase + 0x40, 3, 3,
                    Burst::kIncr});
      }
      net.soc->sim().step();
    }
    EXPECT_GT(net.soc->get<tmu::Tmu>("periph_tmu").fault_log().size(), 0u);
    net.check("cheshire_periph_stall");
  }
}

// ------------------------------------------------------------------
// IP testbench trials (Fig. 8/9)
// ------------------------------------------------------------------

/// The outcome fields of one trial: every field but the effort count
/// eval_passes, the metrics and the traces.
std::vector<unsigned char> outcome_bytes(const campaign::TrialResult& r) {
  SaveBytes v;
  put(v, r.detected);
  put(v, r.recovered);
  put(v, r.traffic_resumed);
  put(v, r.failed);
  put(v, r.timed_out);
  put(v, r.inject_delay);
  put(v, r.detect_cycle);
  put(v, r.latency);
  put(v, r.cycles_run);
  put(v, r.completed_txns);
  put(v, r.data_mismatches);
  put(v, r.error_responses);
  return v.take_bytes();
}

// Both TMU variants against every fault point class, one pinned outcome
// per trial.
TEST(SocDescEquiv, IpTestbenchTrialsMatchGoldens) {
  constexpr fault::FaultPoint kPoints[] = {
      fault::FaultPoint::kNone,          fault::FaultPoint::kAwReadyStuck,
      fault::FaultPoint::kBValidStuck,   fault::FaultPoint::kRValidStuck,
      fault::FaultPoint::kWValidStuck,   fault::FaultPoint::kMidBurstWStall,
      fault::FaultPoint::kBReadyStuck,
  };
  for (const tmu::Variant v :
       {tmu::Variant::kFullCounter, tmu::Variant::kTinyCounter}) {
    for (const fault::FaultPoint p : kPoints) {
      campaign::TrialSpec spec;
      spec.cfg.variant = v;
      spec.cfg.adaptive.enabled = true;
      spec.point = p;
      spec.traffic.enabled = true;
      spec.traffic.p_new_txn = 0.3;
      spec.traffic.len_max = 7;
      spec.seed = 0xABCDull + static_cast<std::uint64_t>(p) * 7919;
      spec.inject_delay_max = 200;
      spec.detect_budget = 3000;
      spec.soak_cycles = 2500;
      spec.exercise_recovery = p != fault::FaultPoint::kNone;
      g_goldens.check(
          std::string("ip_trial/") + to_string(v) + "/" + to_string(p),
          digest(outcome_bytes(campaign::run_fault_trial(spec))));
    }
  }
}

/// The report without its effort fields (eval passes and the sched.*
/// metrics), followed by every trial's outcome fields.
std::uint64_t campaign_digest(campaign::Report rep) {
  const auto scrub = [](campaign::ScenarioSummary& s) {
    s.total_eval_passes = 0;
    const auto is_sched = [](const auto& kv) {
      return kv.first.rfind("sched.", 0) == 0;
    };
    std::erase_if(s.metrics.counters, is_sched);
    std::erase_if(s.metrics.histograms, is_sched);
  };
  scrub(rep.overall);
  for (campaign::ScenarioSummary& s : rep.scenarios) scrub(s);
  const std::string json = rep.to_json();
  std::vector<unsigned char> bytes(json.begin(), json.end());
  for (const campaign::TrialResult& r : rep.results) {
    const std::vector<unsigned char> o = outcome_bytes(r);
    bytes.insert(bytes.end(), o.begin(), o.end());
  }
  return digest(bytes);
}

// A whole campaign through the engine on two threads: labels,
// latencies and every floating-point statistic of the report.
TEST(SocDescEquiv, CampaignReportMatchesGoldens) {
  campaign::TrialSpec proto;
  proto.cfg.variant = tmu::Variant::kFullCounter;
  proto.point = fault::FaultPoint::kBValidStuck;
  proto.traffic.enabled = true;
  proto.traffic.p_new_txn = 0.25;
  proto.inject_delay_max = 150;
  proto.detect_budget = 2500;
  proto.exercise_recovery = true;
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("fc/b_valid_stuck", proto, 8));
  const campaign::Report rep = campaign::Engine({2, 0xFACEull}).run(sc);
  EXPECT_EQ(rep.scenarios[0].topology, "ip_testbench");
  EXPECT_GT(rep.scenarios[0].detected, 0u);
  g_goldens.check("campaign/fc_b_valid_stuck", campaign_digest(rep));
}

}  // namespace
