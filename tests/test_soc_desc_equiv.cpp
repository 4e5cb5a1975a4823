// Builder-vs-legacy equivalence: the SocBuilder elaboration of
// cheshire_desc() must be cycle-exact against the hand-wired
// CheshireSystem construction it replaced (kept here as the reference),
// wire-for-wire under lockstep stimulus — random traffic, DMA streams,
// injected faults, recovery and idle phases. Likewise the builder-based
// campaign::run_fault_trial must reproduce the legacy hand-wired IP
// trial result-for-result. This is the topology-redesign gate
// scripts/check.sh runs alongside the scheduler and crossbar gates.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "campaign/campaign.hpp"
#include "sim/logger.hpp"
#include "sim/random.hpp"
#include "soc/builder.hpp"
#include "soc/cheshire.hpp"
#include "soc/topologies.hpp"

namespace {

using namespace axi;

// Injected faults legitimately provoke protocol warnings; keep the
// determinism-gate output clean.
const bool g_quiet = [] {
  sim::global_log_level() = sim::LogLevel::kOff;
  return true;
}();

/// The pre-redesign CheshireSystem, verbatim: fixed members, hand-wired
/// links, explicit Simulator::add sequence. The builder must reproduce
/// this netlist exactly (its canonical registration order differs only
/// between wire-coupled chains, which must not be observable).
struct LegacyCheshire {
  axi::Link l_cva6_0_, l_cva6_1_, l_idma_, l_dma_eng_;
  axi::Link l_llc_up_, l_eth_xbar_, l_periph_xbar_;
  axi::Link l_dram_;
  axi::Link l_tmu_mst_, l_tmu_sub_, l_eth_;
  axi::Link l_periph_tmu_sub_, l_periph_;

  axi::TrafficGenerator cva6_0_;
  axi::TrafficGenerator cva6_1_;
  axi::TrafficGenerator idma_;
  soc::IdmaEngine dma_engine_;
  axi::Crossbar xbar_;
  soc::LastLevelCache llc_;
  axi::MemorySubordinate dram_;
  tmu::Tmu periph_tmu_;
  fault::FaultInjector periph_inj_;
  axi::MemorySubordinate periph_;
  fault::FaultInjector inj_m_;
  tmu::Tmu tmu_;
  fault::FaultInjector inj_s_;
  soc::EthernetPeripheral eth_;
  soc::ResetUnit rst_;
  soc::ResetUnit periph_rst_;
  soc::IrqController plic_;
  soc::CpuRecoveryStub cpu_;
  sim::Simulator sim_;

  explicit LegacyCheshire(const tmu::TmuConfig& tmu_cfg,
                          soc::EthernetConfig eth_cfg = {})
      : cva6_0_("cva6_0", l_cva6_0_, 101),
        cva6_1_("cva6_1", l_cva6_1_, 202),
        idma_("idma", l_idma_, 303),
        dma_engine_("dma_engine", l_dma_eng_, 16, 0xD),
        xbar_("xbar", {&l_cva6_0_, &l_cva6_1_, &l_idma_, &l_dma_eng_},
              {&l_llc_up_, &l_eth_xbar_, &l_periph_xbar_},
              {axi::AddrRange{soc::CheshireMap::kDramBase,
                              soc::CheshireMap::kDramSize, 0},
               axi::AddrRange{soc::CheshireMap::kEthBase,
                              soc::CheshireMap::kEthSize, 1},
               axi::AddrRange{soc::CheshireMap::kPeriphBase,
                              soc::CheshireMap::kPeriphSize, 2}}),
        llc_("llc", l_llc_up_, l_dram_),
        dram_("dram", l_dram_),
        periph_tmu_("periph_tmu", l_periph_xbar_, l_periph_tmu_sub_,
                    soc::periph_tc_config()),
        periph_inj_("periph_inj", l_periph_tmu_sub_, l_periph_),
        periph_("periph", l_periph_),
        inj_m_("inj_m", l_eth_xbar_, l_tmu_mst_),
        tmu_("tmu", l_tmu_mst_, l_tmu_sub_, tmu_cfg),
        inj_s_("inj_s", l_tmu_sub_, l_eth_),
        eth_("ethernet", l_eth_, eth_cfg),
        rst_("reset_unit", tmu_.reset_req, tmu_.reset_ack,
             [this] { eth_.hw_reset(); }),
        periph_rst_("periph_reset_unit", periph_tmu_.reset_req,
                    periph_tmu_.reset_ack, [this] { periph_.hw_reset(); }),
        plic_("plic"),
        cpu_("cva6_irq_handler", plic_, {&tmu_, &periph_tmu_}) {
    plic_.add_source(tmu_.irq);
    plic_.add_source(periph_tmu_.irq);
    sim_.add(cva6_0_);
    sim_.add(cva6_1_);
    sim_.add(idma_);
    sim_.add(dma_engine_);
    sim_.add(xbar_);
    sim_.add(llc_);
    sim_.add(dram_);
    sim_.add(periph_tmu_);
    sim_.add(periph_inj_);
    sim_.add(periph_);
    sim_.add(inj_m_);
    sim_.add(tmu_);
    sim_.add(inj_s_);
    sim_.add(eth_);
    sim_.add(rst_);
    sim_.add(periph_rst_);
    sim_.add(plic_);
    sim_.add(cpu_);
    sim_.reset();
  }
};

void expect_links_equal(const Link& legacy, const Link& built,
                        const std::string& which, std::uint64_t cycle) {
  ASSERT_TRUE(legacy.req.read() == built.req.read())
      << which << ".req diverged at cycle " << cycle;
  ASSERT_TRUE(legacy.rsp.read() == built.rsp.read())
      << which << ".rsp diverged at cycle " << cycle;
}

/// Every link of the legacy netlist against its builder-named twin.
void expect_netlists_equal(LegacyCheshire& a, soc::Soc& b,
                           std::uint64_t cycle) {
  const std::pair<Link*, const char*> pairs[] = {
      {&a.l_cva6_0_, "cva6_0.out"},
      {&a.l_cva6_1_, "cva6_1.out"},
      {&a.l_idma_, "idma.out"},
      {&a.l_dma_eng_, "dma_engine.out"},
      {&a.l_llc_up_, "llc.in"},
      {&a.l_dram_, "dram.in"},
      {&a.l_eth_xbar_, "inj_m.in"},
      {&a.l_tmu_mst_, "tmu.in"},
      {&a.l_tmu_sub_, "inj_s.in"},
      {&a.l_eth_, "ethernet.in"},
      {&a.l_periph_xbar_, "periph_tmu.in"},
      {&a.l_periph_tmu_sub_, "periph_inj.in"},
      {&a.l_periph_, "periph.in"},
  };
  for (const auto& [link, name] : pairs) {
    expect_links_equal(*link, b.link(name), name, cycle);
  }
  tmu::Tmu& bt = b.get<tmu::Tmu>("tmu");
  tmu::Tmu& bpt = b.get<tmu::Tmu>("periph_tmu");
  ASSERT_EQ(a.tmu_.irq.read(), bt.irq.read()) << "tmu.irq @ " << cycle;
  ASSERT_EQ(a.tmu_.reset_req.read(), bt.reset_req.read())
      << "tmu.reset_req @ " << cycle;
  ASSERT_EQ(a.periph_tmu_.irq.read(), bpt.irq.read())
      << "periph_tmu.irq @ " << cycle;
}

/// Architectural state beyond the wires (checked at phase boundaries).
void expect_counters_equal(LegacyCheshire& a, soc::Soc& b) {
  EXPECT_EQ(a.cva6_0_.completed(),
            b.get<TrafficGenerator>("cva6_0").completed());
  EXPECT_EQ(a.cva6_1_.completed(),
            b.get<TrafficGenerator>("cva6_1").completed());
  EXPECT_EQ(a.dma_engine_.beats_moved(),
            b.get<soc::IdmaEngine>("dma_engine").beats_moved());
  EXPECT_EQ(a.tmu_.fault_log().size(),
            b.get<tmu::Tmu>("tmu").fault_log().size());
  EXPECT_EQ(a.tmu_.recoveries(), b.get<tmu::Tmu>("tmu").recoveries());
  EXPECT_EQ(a.eth_.hw_resets(),
            b.get<soc::EthernetPeripheral>("ethernet").hw_resets());
  EXPECT_EQ(a.eth_.frames_txed(),
            b.get<soc::EthernetPeripheral>("ethernet").frames_txed());
  EXPECT_EQ(a.llc_.hits(), b.get<soc::LastLevelCache>("llc").hits());
  EXPECT_EQ(a.llc_.misses(), b.get<soc::LastLevelCache>("llc").misses());
  EXPECT_EQ(a.cpu_.irqs_handled(),
            b.get<soc::CpuRecoveryStub>("cva6_irq_handler").irqs_handled());
  EXPECT_EQ(a.rst_.resets_performed(),
            b.get<soc::ResetUnit>("reset_unit").resets_performed());
  EXPECT_EQ(a.xbar_.decode_errors(),
            b.get<axi::Crossbar>("xbar").decode_errors());
}

tmu::TmuConfig lockstep_cfg() {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.adaptive.enabled = true;
  return cfg;
}

// The full fault -> sever -> reset -> recover -> resume arc, in
// lockstep: identical stimulus applied to both netlists every cycle,
// every wire compared every cycle.
TEST(SocDescEquiv, CheshireLockstepThroughFaultAndRecovery) {
  LegacyCheshire legacy(lockstep_cfg());
  soc::CheshireSystem built(lockstep_cfg());  // facade over the builder

  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.15;
  rc.addr_min = soc::CheshireMap::kDramBase;
  rc.addr_max = soc::CheshireMap::kDramBase + 0xFF00;
  legacy.cva6_0_.set_random(rc);
  built.cva6_0().set_random(rc);
  RandomTrafficConfig rc1 = rc;
  rc1.p_new_txn = 0.1;
  rc1.addr_min = soc::CheshireMap::kPeriphBase;
  rc1.addr_max = soc::CheshireMap::kPeriphBase + 0xF000;
  legacy.cva6_1_.set_random(rc1);
  built.cva6_1().set_random(rc1);

  const soc::DmaDescriptor dma{soc::CheshireMap::kDramBase,
                               soc::CheshireMap::kEthTxWindow, 400};

  for (std::uint64_t c = 0; c < 2600; ++c) {
    if (c == 50) {
      legacy.dma_engine_.submit(dma);
      built.dma_engine().submit(dma);
    }
    if (c == 150) {  // the Ethernet MAC hangs while the frame streams
      legacy.inj_s_.arm(fault::FaultPoint::kWReadyStuck, 150);
      built.eth_side_injector().arm(fault::FaultPoint::kWReadyStuck, 150);
    }
    if (c == 1200) {
      legacy.inj_s_.disarm();
      built.eth_side_injector().disarm();
    }
    if (c == 1800) {  // idle the SoC: event-driven settles to zero work
      RandomTrafficConfig off;
      legacy.cva6_0_.set_random(off);
      built.cva6_0().set_random(off);
      legacy.cva6_1_.set_random(off);
      built.cva6_1().set_random(off);
    }
    if (c == 2200) {  // resume
      legacy.cva6_0_.set_random(rc);
      built.cva6_0().set_random(rc);
    }
    legacy.sim_.step();
    built.sim().step();
    expect_netlists_equal(legacy, built.soc(), c);
    if (::testing::Test::HasFailure()) return;
  }
  expect_counters_equal(legacy, built.soc());
  // The scenario actually exercised the recovery loop.
  EXPECT_GT(legacy.tmu_.fault_log().size(), 0u);
  EXPECT_GT(legacy.eth_.hw_resets(), 0u);
  EXPECT_GT(legacy.cpu_.irqs_handled(), 0u);
  EXPECT_GT(legacy.cva6_0_.completed(), 0u);
}

// Same lockstep under the full-sweep kernel (the builder carries the
// policy in the desc).
TEST(SocDescEquiv, CheshireLockstepFullSweep) {
  LegacyCheshire legacy(lockstep_cfg());
  legacy.sim_.set_policy(sim::sched::SchedPolicy::kFullSweep);
  soc::SocDesc d = soc::cheshire_desc(lockstep_cfg());
  d.policy = sim::sched::SchedPolicy::kFullSweep;
  const auto built = soc::SocBuilder::build(d);

  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.2;
  rc.addr_min = soc::CheshireMap::kDramBase;
  rc.addr_max = soc::CheshireMap::kDramBase + 0xFF00;
  legacy.cva6_0_.set_random(rc);
  built->get<TrafficGenerator>("cva6_0").set_random(rc);

  for (std::uint64_t c = 0; c < 800; ++c) {
    if (c == 100) {
      legacy.periph_inj_.arm(fault::FaultPoint::kBValidStuck, 100);
      built->get<fault::FaultInjector>("periph_inj")
          .arm(fault::FaultPoint::kBValidStuck, 100);
      const TxnDesc poke{true, 1, soc::CheshireMap::kPeriphBase + 0x40, 3, 3,
                         Burst::kIncr};
      legacy.cva6_1_.push(poke);
      built->get<TrafficGenerator>("cva6_1").push(poke);
    }
    legacy.sim_.step();
    built->sim().step();
    expect_netlists_equal(legacy, *built, c);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(legacy.periph_tmu_.fault_log().size(), 0u);
  EXPECT_EQ(legacy.periph_tmu_.fault_log().size(),
            built->get<tmu::Tmu>("periph_tmu").fault_log().size());
}

// ------------------------------------------------------------------
// Campaign parity: run_fault_trial (builder-based) against the legacy
// hand-wired IP-level trial, result-for-result.
// ------------------------------------------------------------------

/// The pre-redesign run_fault_trial, verbatim.
campaign::TrialResult legacy_fault_trial(const campaign::TrialSpec& spec) {
  axi::Link l_gen, l_tmu_mst, l_tmu_sub, l_mem;
  axi::TrafficGenerator gen("gen", l_gen, spec.seed);
  fault::FaultInjector inj_m("inj_m", l_gen, l_tmu_mst);
  tmu::Tmu t("tmu", l_tmu_mst, l_tmu_sub, spec.cfg);
  fault::FaultInjector inj_s("inj_s", l_tmu_sub, l_mem);
  axi::MemorySubordinate mem("mem", l_mem);
  soc::ResetUnit rst("rst", t.reset_req, t.reset_ack, [&] { mem.hw_reset(); });
  sim::Simulator s;
  s.add(gen);
  s.add(inj_m);
  s.add(t);
  s.add(inj_s);
  s.add(mem);
  s.add(rst);
  s.reset();
  gen.set_random(spec.traffic);

  campaign::TrialResult r;
  if (spec.point == fault::FaultPoint::kNone) {
    s.run(spec.soak_cycles);
    r.detected = t.any_fault();
    if (r.detected) r.detect_cycle = t.fault_log().front().cycle;
  } else {
    sim::Rng rng(spec.seed ^ 0xD1B54A32D192ED03ull);
    r.inject_delay =
        spec.inject_delay_max != 0 ? rng.range(0, spec.inject_delay_max) : 0;
    fault::FaultInjector& inj =
        fault::is_manager_side(spec.point) ? inj_m : inj_s;
    inj.arm(spec.point, r.inject_delay);
    if (s.run_until([&] { return t.any_fault(); },
                    r.inject_delay + spec.detect_budget)) {
      r.detected = true;
      r.detect_cycle = t.fault_log().front().cycle;
      r.latency = r.detect_cycle - inj.fault_start_cycle();
    }
    if (r.detected && spec.exercise_recovery) {
      inj.disarm();
      r.recovered = s.run_until([&] { return t.recoveries() >= 1; }, 2000);
      const auto before = gen.completed();
      r.traffic_resumed =
          s.run_until([&] { return gen.completed() > before; }, 2000);
    }
  }
  r.cycles_run = s.cycle();
  r.eval_passes = s.eval_passes();
  r.completed_txns = gen.completed();
  r.data_mismatches = gen.data_mismatches();
  r.error_responses = gen.error_responses();
  // Mirror run_fault_trial's telemetry bridge: the hand-wired netlist
  // has no probes, so the scheduler profile is the whole snapshot.
  const sim::sched::SchedProfile prof = s.sched_profile();
  for (const auto& mp : prof.modules) {
    if (mp.evals != 0) {
      r.metrics.counters["sched." + mp.name + ".evals"] += mp.evals;
    }
  }
  r.metrics.histograms["sched.dirty_depth"].merge(prof.dirty_depth);
  return r;
}

void expect_results_equal(const campaign::TrialResult& a,
                          const campaign::TrialResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.detected, b.detected) << what;
  EXPECT_EQ(a.recovered, b.recovered) << what;
  EXPECT_EQ(a.traffic_resumed, b.traffic_resumed) << what;
  EXPECT_EQ(a.inject_delay, b.inject_delay) << what;
  EXPECT_EQ(a.detect_cycle, b.detect_cycle) << what;
  EXPECT_EQ(a.latency, b.latency) << what;
  EXPECT_EQ(a.cycles_run, b.cycles_run) << what;
  EXPECT_EQ(a.eval_passes, b.eval_passes) << what;
  EXPECT_EQ(a.completed_txns, b.completed_txns) << what;
  EXPECT_EQ(a.data_mismatches, b.data_mismatches) << what;
  EXPECT_EQ(a.error_responses, b.error_responses) << what;
}

TEST(SocDescEquiv, FaultTrialMatchesLegacyHandWiredTestbench) {
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
      const std::string what = std::string(to_string(v)) + "/" +
                               to_string(p);
      expect_results_equal(legacy_fault_trial(spec),
                           campaign::run_fault_trial(spec), what);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Engine-level parity: a whole campaign through the builder-based trial
// aggregates identically to one through the legacy wiring (labels,
// latencies, every floating-point statistic).
TEST(SocDescEquiv, CampaignReportMatchesLegacyTrialFn) {
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
  campaign::Engine eng({2, 0xFACEull});
  const campaign::Report via_builder = eng.run(sc);
  const campaign::Report via_legacy = eng.run(sc, legacy_fault_trial);
  EXPECT_EQ(via_builder.to_json(), via_legacy.to_json());
  EXPECT_EQ(via_builder.scenarios[0].topology, "ip_testbench");
  EXPECT_GT(via_builder.scenarios[0].detected, 0u);
}

}  // namespace
