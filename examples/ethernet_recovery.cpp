// System-level scenario (paper Fig. 10/11): the Cheshire-like SoC with
// the TMU monitoring the Ethernet endpoint. The Ethernet IP hangs in
// the middle of a 250-beat frame write; the TMU severs the endpoint,
// aborts the transaction with SLVERR, the reset unit power-cycles the
// IP, the CVA6 stub services the interrupt, and traffic resumes.
//
// Build & run:  ./build/examples/ethernet_recovery

#include <cstdio>

#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "soc/builder.hpp"
#include "soc/cpu_stub.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

int main() {
  using namespace axi;
  using soc::CheshireMap;

  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.budgets.aw_vld_aw_rdy = 10;
  cfg.budgets.aw_rdy_w_vld = 20;
  cfg.budgets.w_vld_w_rdy = 10;
  cfg.budgets.w_first_w_last = 250;
  cfg.budgets.w_last_b_vld = 10;
  cfg.budgets.b_vld_b_rdy = 10;
  cfg.max_txn_cycles = 320;
  cfg.adaptive.enabled = false;

  const auto sys = soc::SocBuilder::build(soc::cheshire_desc(cfg));
  sim::Simulator& sim = sys->sim();
  auto& cva6_0 = sys->get<TrafficGenerator>("cva6_0");
  auto& idma = sys->get<TrafficGenerator>("idma");
  auto& inj_s = sys->get<fault::FaultInjector>("inj_s");
  auto& eth_tmu = sys->get<tmu::Tmu>("tmu");
  auto& ethernet = sys->get<soc::EthernetPeripheral>("ethernet");
  auto& cpu = sys->get<soc::CpuRecoveryStub>("cva6_irq_handler");

  // Background traffic on the rest of the SoC.
  RandomTrafficConfig rc;
  rc.enabled = true;
  rc.p_new_txn = 0.1;
  rc.addr_min = CheshireMap::kDramBase;
  rc.addr_max = CheshireMap::kDramBase + 0xFF00;
  cva6_0.set_random(rc);

  // The iDMA streams a 250-beat frame into the Ethernet TX window; the
  // MAC stalls mid-frame (w_ready stuck after 125 beats).
  inj_s.arm(fault::FaultPoint::kMidBurstWStall, 0, 125);
  idma.push(TxnDesc{true, 2, CheshireMap::kEthTxWindow, 249, 3, Burst::kIncr});

  sim.run_until([&] { return eth_tmu.any_fault(); }, 5000);
  const auto& f = eth_tmu.fault_log().front();
  std::printf("t=%-6llu TMU detected: %s\n",
              static_cast<unsigned long long>(f.cycle), f.describe().c_str());

  sim.run_until([&] { return !eth_tmu.severed() && cpu.irqs_handled() >= 1; },
                3000);
  std::printf("t=%-6llu recovered: ethernet hw resets=%llu, CPU handled "
              "%llu irq(s), read %llu fault record(s)\n",
              static_cast<unsigned long long>(sim.cycle()),
              static_cast<unsigned long long>(ethernet.hw_resets()),
              static_cast<unsigned long long>(cpu.irqs_handled()),
              static_cast<unsigned long long>(cpu.faults_read()));

  // Ethernet is functional again; DRAM traffic never stopped.
  inj_s.disarm();
  const auto before = ethernet.frames_txed();
  idma.push(TxnDesc{true, 2, CheshireMap::kEthTxWindow, 63, 3, Burst::kIncr});
  sim.run_until([&] { return ethernet.frames_txed() >= before + 64; }, 3000);
  std::printf("t=%-6llu ethernet alive again: %llu beats on the wire; "
              "CVA6 completed %zu DRAM transactions throughout\n",
              static_cast<unsigned long long>(sim.cycle()),
              static_cast<unsigned long long>(ethernet.frames_txed()),
              cva6_0.completed());
  return 0;
}
