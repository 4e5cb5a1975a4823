#pragma once

#include "soc/desc.hpp"
#include "tmu/config.hpp"

namespace soc {

/// Address map of the Cheshire-like system (Fig. 10).
struct CheshireMap {
  static constexpr axi::Addr kDramBase = 0x8000'0000;
  static constexpr axi::Addr kDramSize = 0x0010'0000;
  static constexpr axi::Addr kEthBase = 0x0300'0000;
  static constexpr axi::Addr kEthSize = 0x0001'0000;
  static constexpr axi::Addr kPeriphBase = 0x0400'0000;
  static constexpr axi::Addr kPeriphSize = 0x0001'0000;
  /// First TX-window address of the Ethernet IP (past its MMIO page).
  static constexpr axi::Addr kEthTxWindow = kEthBase + 0x1000;
};

/// The paper's system-level testbed (Fig. 10) as data, elaborated with
/// SocBuilder::build() and addressed with Soc::get<T>(name):
///  * managers "cva6_0" and "cva6_1" (CVA6 stand-ins) and "idma"
///    (axi::TrafficGenerator), and the descriptor-based DMA engine
///    "dma_engine" (IdmaEngine), drive the crossbar "xbar";
///  * subordinates "dram" (axi::MemorySubordinate behind the
///    LastLevelCache "llc"), "ethernet" (EthernetPeripheral) and
///    "periph" (axi::MemorySubordinate), at the CheshireMap windows;
///  * a Full-Counter-class tmu::Tmu "tmu" guards the Ethernet endpoint,
///    between fault::FaultInjectors "inj_m" (manager side) and "inj_s"
///    (subordinate side), with ResetUnit "reset_unit";
///  * a Tiny-Counter tmu::Tmu "periph_tmu" (periph_tc_config()) guards
///    the peripheral, with injector "periph_inj" on its subordinate side
///    and ResetUnit "periph_reset_unit";
///  * the PLIC-lite "plic" (IrqController) and the CVA6 recovery stub
///    "cva6_irq_handler" (CpuRecoveryStub) close the recovery loop.
SocDesc cheshire_desc(const tmu::TmuConfig& tmu_cfg,
                      const EthernetConfig& eth_cfg = {});

/// The Tiny-Counter configuration of the Cheshire peripheral guard
/// (§IV: mixing Tc and Fc monitors within the same SoC).
tmu::TmuConfig periph_tc_config();

/// The Fig. 8/9 IP-level fault-trial testbench as data: one traffic
/// generator ("gen") wired point-to-point (no crossbar) into
/// "inj_m" -> "tmu" -> "inj_s" -> "mem", with the external reset unit
/// "rst". This is the default topology of campaign::TrialSpec.
SocDesc ip_testbench_desc(const tmu::TmuConfig& cfg = {});

/// Synthetic scaling grid: n_mgr traffic generators ("gen0"...) into an
/// n_mgr x n_sub crossbar over memory subordinates ("mem0"...), each
/// owning a 64 KiB window; the first `active` managers carry random
/// traffic (25% duty in the scaling bench), the rest idle. Callers pick
/// the scheduler policy / crossbar impl on the returned desc.
SocDesc grid_desc(unsigned n_mgr, unsigned n_sub, unsigned active);

/// Where the Ethernet-guarding TMU of hierarchical_desc() sits. The
/// flat cheshire_desc() is the third point of the placement sweep: its
/// guard hangs directly off the root crossbar.
enum class HierGuardSite {
  kBridge,  ///< one guard at root level, in front of the io cluster's
            ///< bridge: coarse, sees all cluster traffic, its reset
            ///< unit resets the bridge (severing the whole cluster)
  kLeaf,    ///< guards inside the cluster, directly in front of the
            ///< Ethernet IP and the peripheral (the flat layout pushed
            ///< one level down)
};

/// The cluster-behind-bridge Cheshire variant ("cheshire_hier"): the
/// same four managers, the banked DRAM (+LLC) at root level, and an
/// "io_cluster" — Ethernet IP and generic peripheral behind a
/// latency-1, ID-remapping axi::Bridge and a nested crossbar. The
/// cluster window spans both endpoints plus the hole between their
/// windows (requests into the hole DECERR at the cluster crossbar).
/// `site` picks the TMU placement for the guard-placement fault sweep;
/// the leaf variant keeps the flat desc's guard/injector names
/// ("tmu"/"inj_m"/"inj_s"...), so fault campaigns can reuse specs.
SocDesc hierarchical_desc(const tmu::TmuConfig& tmu_cfg,
                          HierGuardSite site = HierGuardSite::kLeaf,
                          const EthernetConfig& eth_cfg = {});

/// Two-level scaling grid: n_mgr generators into a root crossbar over
/// n_cluster clusters of per_cluster memories each (ID-remapping
/// latency-1 bridges, nested crossbars). Window layout matches
/// grid_desc(n_mgr, n_cluster * per_cluster, active), so the same
/// traffic config drives both shapes in the hierarchy bench dimension.
SocDesc hier_grid_desc(unsigned n_mgr, unsigned n_cluster,
                       unsigned per_cluster, unsigned active);

}  // namespace soc
