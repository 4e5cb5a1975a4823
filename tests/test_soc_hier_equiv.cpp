// Hierarchy equivalence gates. (1) Degenerate hierarchy: wrapping every
// flat Cheshire subordinate in a 1-subordinate cluster behind a
// transparent (latency-0) bridge must be cycle-exact wire-for-wire
// against the flat build — through random traffic, a DMA stream, an
// injected fault and the recovery arc, under both scheduler policies.
// (2) Campaign determinism on the real hierarchical topology: Engine
// reports from hierarchical_desc() trials are byte-identical across
// thread counts and record the v2 topology hash. (3) The guard-placement
// sweep (root xbar vs bridge vs leaf) detects faults at every site.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/traffic_gen.hpp"
#include "campaign/campaign.hpp"
#include "fault/injector.hpp"
#include "sim/logger.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/ethernet.hpp"
#include "soc/idma.hpp"
#include "soc/llc.hpp"
#include "soc/reset_unit.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

namespace {

using namespace axi;

// Injected faults legitimately provoke protocol warnings; keep the
// determinism-gate output clean.
const bool g_quiet = [] {
  sim::global_log_level() = sim::LogLevel::kOff;
  return true;
}();

/// Wraps every subordinate of a flat desc in its own single-subordinate
/// cluster behind a transparent bridge: the degenerate hierarchy. Root
/// guards move inside the owning cluster (so reset units still reset the
/// real endpoint, and the PLIC's visit_guards order — root-then-DFS —
/// matches the flat guard declaration order).
soc::SocDesc wrap_degenerate(const soc::SocDesc& flat) {
  soc::SocDesc d = flat;
  d.name = flat.name + "_wrapped";
  d.subordinates.clear();
  d.guards.clear();
  for (const soc::SubordinateDesc& s : flat.subordinates) {
    soc::SubordinateDesc outer;
    outer.name = s.name + "_cl";
    outer.kind = soc::SubordinateKind::kCluster;
    outer.base = s.base;
    outer.size = s.size;
    soc::ClusterDesc c;
    c.id_shift = 16;  // clears the root prefix without remapping
    c.bridge.req_latency = 0;
    c.bridge.rsp_latency = 0;
    c.subordinates = {s};
    for (const soc::GuardDesc& g : flat.guards) {
      if (g.subordinate == s.name) c.guards.push_back(g);
    }
    outer.cluster = {std::move(c)};
    d.subordinates.push_back(std::move(outer));
  }
  return d;
}

void expect_links_equal(const Link& flat, const Link& hier,
                        const std::string& which, std::uint64_t cycle) {
  ASSERT_TRUE(flat.req.read() == hier.req.read())
      << which << ".req diverged at cycle " << cycle;
  ASSERT_TRUE(flat.rsp.read() == hier.rsp.read())
      << which << ".rsp diverged at cycle " << cycle;
}

/// Every named link both elaborations share: the manager ports and the
/// full leaf chains (which sit behind bridge + 1x1 crossbar in the
/// wrapped build).
void expect_netlists_equal(soc::Soc& flat, soc::Soc& hier,
                           std::uint64_t cycle) {
  static const char* const kShared[] = {
      "cva6_0.out",     "cva6_1.out",    "idma.out",  "dma_engine.out",
      "inj_m.in",       "tmu.in",        "inj_s.in",  "ethernet.in",
      "llc.in",         "dram.in",       "periph_tmu.in",
      "periph_inj.in",  "periph.in",
  };
  for (const char* name : kShared) {
    expect_links_equal(flat.link(name), hier.link(name), name, cycle);
  }
  for (const char* g : {"tmu", "periph_tmu"}) {
    tmu::Tmu& a = flat.get<tmu::Tmu>(g);
    tmu::Tmu& b = hier.get<tmu::Tmu>(g);
    ASSERT_EQ(a.irq.read(), b.irq.read()) << g << ".irq @ " << cycle;
    ASSERT_EQ(a.reset_req.read(), b.reset_req.read())
        << g << ".reset_req @ " << cycle;
  }
}

void expect_counters_equal(soc::Soc& flat, soc::Soc& hier) {
  for (const char* m : {"cva6_0", "cva6_1", "idma"}) {
    EXPECT_EQ(flat.get<TrafficGenerator>(m).completed(),
              hier.get<TrafficGenerator>(m).completed())
        << m;
  }
  EXPECT_EQ(flat.get<soc::IdmaEngine>("dma_engine").beats_moved(),
            hier.get<soc::IdmaEngine>("dma_engine").beats_moved());
  EXPECT_EQ(flat.get<tmu::Tmu>("tmu").fault_log().size(),
            hier.get<tmu::Tmu>("tmu").fault_log().size());
  EXPECT_EQ(flat.get<tmu::Tmu>("tmu").recoveries(),
            hier.get<tmu::Tmu>("tmu").recoveries());
  EXPECT_EQ(flat.get<soc::EthernetPeripheral>("ethernet").hw_resets(),
            hier.get<soc::EthernetPeripheral>("ethernet").hw_resets());
  EXPECT_EQ(flat.get<soc::LastLevelCache>("llc").hits(),
            hier.get<soc::LastLevelCache>("llc").hits());
  EXPECT_EQ(flat.get<soc::LastLevelCache>("llc").misses(),
            hier.get<soc::LastLevelCache>("llc").misses());
  EXPECT_EQ(
      flat.get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled(),
      hier.get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled());
  EXPECT_EQ(flat.get<soc::ResetUnit>("reset_unit").resets_performed(),
            hier.get<soc::ResetUnit>("reset_unit").resets_performed());
  EXPECT_EQ(flat.get<Crossbar>("xbar").decode_errors(),
            hier.get<Crossbar>("xbar").decode_errors());
}

tmu::TmuConfig lockstep_cfg() {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.adaptive.enabled = true;
  return cfg;
}

void run_lockstep(sim::sched::SchedPolicy policy, std::uint64_t cycles) {
  soc::SocDesc flat_d = soc::cheshire_desc(lockstep_cfg());
  flat_d.policy = policy;
  soc::SocDesc hier_d = wrap_degenerate(flat_d);
  const auto flat = soc::SocBuilder::build(flat_d);
  const auto hier = soc::SocBuilder::build(hier_d);

  // The wrapped build really did elaborate bridges + nested crossbars.
  ASSERT_TRUE(hier->get<Bridge>("ethernet_cl").transparent());
  ASSERT_NO_THROW(hier->get<Crossbar>("ethernet_cl.xbar"));

  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.15;
  rc.addr_min = soc::CheshireMap::kDramBase;
  rc.addr_max = soc::CheshireMap::kDramBase + 0xFF00;
  RandomTrafficConfig rc1 = rc;
  rc1.p_new_txn = 0.1;
  rc1.addr_min = soc::CheshireMap::kPeriphBase;
  rc1.addr_max = soc::CheshireMap::kPeriphBase + 0xF000;
  for (soc::Soc* s : {flat.get(), hier.get()}) {
    s->get<TrafficGenerator>("cva6_0").set_random(rc);
    s->get<TrafficGenerator>("cva6_1").set_random(rc1);
  }

  const soc::DmaDescriptor dma{soc::CheshireMap::kDramBase,
                               soc::CheshireMap::kEthTxWindow, 400};

  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (c == 50) {
      flat->get<soc::IdmaEngine>("dma_engine").submit(dma);
      hier->get<soc::IdmaEngine>("dma_engine").submit(dma);
    }
    if (c == 150) {  // the Ethernet MAC hangs while the frame streams
      flat->get<fault::FaultInjector>("inj_s").arm(
          fault::FaultPoint::kWReadyStuck, 150);
      hier->get<fault::FaultInjector>("inj_s").arm(
          fault::FaultPoint::kWReadyStuck, 150);
    }
    if (c == 1200) {
      flat->get<fault::FaultInjector>("inj_s").disarm();
      hier->get<fault::FaultInjector>("inj_s").disarm();
    }
    if (c == 1800) {  // idle phase: event-driven settles to zero work
      RandomTrafficConfig off;
      for (soc::Soc* s : {flat.get(), hier.get()}) {
        s->get<TrafficGenerator>("cva6_0").set_random(off);
        s->get<TrafficGenerator>("cva6_1").set_random(off);
      }
    }
    if (c == 2200) {  // resume
      flat->get<TrafficGenerator>("cva6_0").set_random(rc);
      hier->get<TrafficGenerator>("cva6_0").set_random(rc);
    }
    flat->sim().step();
    hier->sim().step();
    expect_netlists_equal(*flat, *hier, c);
    if (::testing::Test::HasFailure()) return;
  }
  expect_counters_equal(*flat, *hier);
  // The arc actually exercised fault detection and recovery.
  EXPECT_GT(flat->get<tmu::Tmu>("tmu").fault_log().size(), 0u);
  EXPECT_GT(flat->get<soc::EthernetPeripheral>("ethernet").hw_resets(), 0u);
}

TEST(SocHierEquiv, DegenerateWrapLockstepEventDriven) {
  run_lockstep(sim::sched::SchedPolicy::kEventDriven, 2600);
}

TEST(SocHierEquiv, DegenerateWrapLockstepFullSweep) {
  run_lockstep(sim::sched::SchedPolicy::kFullSweep, 1400);
}

// ------------------------------------------------------------------
// Campaign determinism on the real (latency-1, ID-remapped) hierarchy.
// ------------------------------------------------------------------

campaign::TrialSpec hier_trial_proto(soc::HierGuardSite site) {
  campaign::TrialSpec spec;
  spec.cfg.variant = tmu::Variant::kFullCounter;
  spec.cfg.adaptive.enabled = true;
  spec.desc = soc::hierarchical_desc(spec.cfg, site);
  spec.point = fault::FaultPoint::kWReadyStuck;
  spec.traffic.enabled = true;
  spec.traffic.p_new_txn = 0.3;
  spec.traffic.addr_min = soc::CheshireMap::kEthBase;
  spec.traffic.addr_max = soc::CheshireMap::kEthBase + 0xF000;
  spec.inject_delay_max = 150;
  spec.detect_budget = 3000;
  return spec;
}

TEST(SocHierEquiv, CampaignReportByteIdenticalAcrossThreadCounts) {
  const campaign::TrialSpec proto = hier_trial_proto(soc::HierGuardSite::kLeaf);
  std::vector<campaign::Scenario> sc;
  sc.push_back(campaign::make_scenario("hier/w_ready_stuck", proto, 8));

  const campaign::Report r1 = campaign::Engine({1, 0xFACEull}).run(sc);
  const campaign::Report r3 = campaign::Engine({3, 0xFACEull}).run(sc);
  EXPECT_EQ(r1.to_json(), r3.to_json());
  EXPECT_GT(r1.scenarios[0].detected, 0u);
  // The v2 topology fingerprint is recorded with the scenario.
  EXPECT_EQ(r1.scenarios[0].topology, "cheshire_hier_leaf");
  EXPECT_EQ(r1.scenarios[0].topology_hash, proto.desc.hash());
  EXPECT_NE(r1.to_json().find("cheshire_hier_leaf"), std::string::npos);
}

// Guard-placement sweep: the same W-ready hang into the Ethernet window
// must be detected with the TMU at the root crossbar (flat), in front of
// the cluster bridge, and at the leaf inside the cluster.
TEST(SocHierEquiv, GuardPlacementSweepDetectsAtEverySite) {
  std::vector<campaign::Scenario> sc;
  campaign::TrialSpec flat = hier_trial_proto(soc::HierGuardSite::kLeaf);
  flat.desc = soc::cheshire_desc(flat.cfg);
  sc.push_back(campaign::make_scenario("site/root_xbar", flat, 4));
  sc.push_back(campaign::make_scenario(
      "site/bridge", hier_trial_proto(soc::HierGuardSite::kBridge), 4));
  sc.push_back(campaign::make_scenario(
      "site/leaf", hier_trial_proto(soc::HierGuardSite::kLeaf), 4));

  const campaign::Report r = campaign::Engine({2, 0xBEEFull}).run(sc);
  ASSERT_EQ(r.scenarios.size(), 3u);
  for (const campaign::ScenarioSummary& s : r.scenarios) {
    EXPECT_EQ(s.detected, s.trials) << s.label;
  }
  // Distinct topologies, distinct recorded fingerprints.
  EXPECT_NE(r.scenarios[0].topology_hash, r.scenarios[1].topology_hash);
  EXPECT_NE(r.scenarios[1].topology_hash, r.scenarios[2].topology_hash);
}

}  // namespace
