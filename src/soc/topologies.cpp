#include "soc/topologies.hpp"

#include <string>

namespace soc {

tmu::TmuConfig periph_tc_config() {
  // Best-effort endpoint: Tiny-Counter with a prescaler, adaptive
  // budgets on, generous whole-transaction budget (§IV: mixing Tc and
  // Fc monitors within the same SoC).
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kTinyCounter;
  cfg.tc_total_budget = 512;
  cfg.prescaler_step = 16;
  cfg.sticky_bit = true;
  cfg.adaptive.enabled = true;
  cfg.max_txn_cycles = 1024;
  return cfg;
}

SocDesc cheshire_desc(const tmu::TmuConfig& tmu_cfg,
                      const EthernetConfig& eth_cfg) {
  SocDesc d;
  d.name = "cheshire";

  ManagerDesc cva6_0;
  cva6_0.name = "cva6_0";
  cva6_0.seed = 101;
  ManagerDesc cva6_1;
  cva6_1.name = "cva6_1";
  cva6_1.seed = 202;
  ManagerDesc idma;
  idma.name = "idma";
  idma.seed = 303;
  ManagerDesc dma_engine;
  dma_engine.name = "dma_engine";
  dma_engine.kind = ManagerKind::kDmaEngine;
  dma_engine.dma_max_burst = 16;
  dma_engine.dma_id = 0xD;
  d.managers = {cva6_0, cva6_1, idma, dma_engine};

  SubordinateDesc dram;
  dram.name = "dram";
  dram.base = CheshireMap::kDramBase;
  dram.size = CheshireMap::kDramSize;
  dram.llc = true;
  dram.llc_name = "llc";
  SubordinateDesc eth;
  eth.name = "ethernet";
  eth.kind = SubordinateKind::kEthernet;
  eth.base = CheshireMap::kEthBase;
  eth.size = CheshireMap::kEthSize;
  eth.eth = eth_cfg;
  SubordinateDesc periph;
  periph.name = "periph";
  periph.base = CheshireMap::kPeriphBase;
  periph.size = CheshireMap::kPeriphSize;
  d.subordinates = {dram, eth, periph};

  GuardDesc eth_guard;
  eth_guard.name = "tmu";
  eth_guard.subordinate = "ethernet";
  eth_guard.cfg = tmu_cfg;
  eth_guard.mgr_injector = "inj_m";
  eth_guard.sub_injector = "inj_s";
  eth_guard.reset_unit = "reset_unit";
  GuardDesc periph_guard;
  periph_guard.name = "periph_tmu";
  periph_guard.subordinate = "periph";
  periph_guard.cfg = periph_tc_config();
  periph_guard.sub_injector = "periph_inj";
  periph_guard.reset_unit = "periph_reset_unit";
  d.guards = {eth_guard, periph_guard};

  d.recovery.enabled = true;
  d.recovery.plic = "plic";
  d.recovery.cpu = "cva6_irq_handler";
  return d;
}

SocDesc ip_testbench_desc(const tmu::TmuConfig& cfg) {
  SocDesc d;
  d.name = "ip_testbench";
  d.crossbar = false;

  ManagerDesc gen;
  gen.name = "gen";
  d.managers = {gen};

  SubordinateDesc mem;
  mem.name = "mem";
  d.subordinates = {mem};

  GuardDesc guard;
  guard.name = "tmu";
  guard.subordinate = "mem";
  guard.cfg = cfg;
  guard.mgr_injector = "inj_m";
  guard.sub_injector = "inj_s";
  guard.reset_unit = "rst";
  d.guards = {guard};
  return d;
}

SocDesc hierarchical_desc(const tmu::TmuConfig& tmu_cfg, HierGuardSite site,
                          const EthernetConfig& eth_cfg) {
  SocDesc d;
  d.name = site == HierGuardSite::kBridge ? "cheshire_hier_bridge"
                                          : "cheshire_hier_leaf";

  ManagerDesc cva6_0;
  cva6_0.name = "cva6_0";
  cva6_0.seed = 101;
  ManagerDesc cva6_1;
  cva6_1.name = "cva6_1";
  cva6_1.seed = 202;
  ManagerDesc idma;
  idma.name = "idma";
  idma.seed = 303;
  ManagerDesc dma_engine;
  dma_engine.name = "dma_engine";
  dma_engine.kind = ManagerKind::kDmaEngine;
  dma_engine.dma_max_burst = 16;
  dma_engine.dma_id = 0xD;
  d.managers = {cva6_0, cva6_1, idma, dma_engine};

  // Root-level DRAM with realistic bank timing behind the LLC.
  SubordinateDesc dram;
  dram.name = "dram";
  dram.base = CheshireMap::kDramBase;
  dram.size = CheshireMap::kDramSize;
  dram.llc = true;
  dram.llc_name = "llc";
  dram.mem.bank.enabled = true;
  dram.mem.bank.num_banks = 8;

  // The IO cluster: Ethernet and peripheral behind a bridge. Its window
  // covers both leaf windows and the unmapped gap between them.
  SubordinateDesc io;
  io.name = "io_cluster";
  io.kind = SubordinateKind::kCluster;
  io.base = CheshireMap::kEthBase;
  io.size = CheshireMap::kPeriphBase + CheshireMap::kPeriphSize -
            CheshireMap::kEthBase;
  ClusterDesc c;
  c.id_shift = 8;
  c.bridge.req_latency = 1;
  c.bridge.rsp_latency = 1;
  c.bridge.id_remap = true;
  c.bridge.max_ids = 16;

  SubordinateDesc eth;
  eth.name = "ethernet";
  eth.kind = SubordinateKind::kEthernet;
  eth.base = CheshireMap::kEthBase;
  eth.size = CheshireMap::kEthSize;
  eth.eth = eth_cfg;
  SubordinateDesc periph;
  periph.name = "periph";
  periph.base = CheshireMap::kPeriphBase;
  periph.size = CheshireMap::kPeriphSize;
  c.subordinates = {eth, periph};

  GuardDesc eth_guard;
  eth_guard.name = "tmu";
  eth_guard.cfg = tmu_cfg;
  eth_guard.mgr_injector = "inj_m";
  eth_guard.sub_injector = "inj_s";
  eth_guard.reset_unit = "reset_unit";
  if (site == HierGuardSite::kBridge) {
    // One coarse guard in front of the bridge; its reset severs the
    // whole cluster. The peripheral rides unguarded behind it.
    eth_guard.subordinate = "io_cluster";
    d.guards = {eth_guard};
  } else {
    eth_guard.subordinate = "ethernet";
    GuardDesc periph_guard;
    periph_guard.name = "periph_tmu";
    periph_guard.subordinate = "periph";
    periph_guard.cfg = periph_tc_config();
    periph_guard.sub_injector = "periph_inj";
    periph_guard.reset_unit = "periph_reset_unit";
    c.guards = {eth_guard, periph_guard};
  }

  io.cluster = {c};
  d.subordinates = {dram, io};

  d.recovery.enabled = true;
  d.recovery.plic = "plic";
  d.recovery.cpu = "cva6_irq_handler";
  return d;
}

SocDesc grid_desc(unsigned n_mgr, unsigned n_sub, unsigned active) {
  SocDesc d;
  d.name = "grid_" + std::to_string(n_mgr) + "x" + std::to_string(n_sub);
  for (unsigned i = 0; i < n_mgr; ++i) {
    ManagerDesc m;
    m.name = "gen" + std::to_string(i);
    m.seed = 1000 + i;
    if (i < active) {
      m.traffic.enabled = true;
      m.traffic.p_new_txn = 0.25;
      m.traffic.len_max = 7;
      m.traffic.addr_min = 0;
      m.traffic.addr_max = n_sub * 0x1'0000ull - 8;
    }
    d.managers.push_back(std::move(m));
  }
  for (unsigned j = 0; j < n_sub; ++j) {
    SubordinateDesc s;
    s.name = "mem" + std::to_string(j);
    s.base = j * 0x1'0000ull;
    s.size = 0x1'0000ull;
    d.subordinates.push_back(std::move(s));
  }
  return d;
}

SocDesc hier_grid_desc(unsigned n_mgr, unsigned n_cluster,
                       unsigned per_cluster, unsigned active) {
  // Same managers and flat leaf address layout as the equivalent
  // grid_desc, with the leaves regrouped behind bridges.
  SocDesc d = grid_desc(n_mgr, n_cluster * per_cluster, active);
  d.name = "hgrid_" + std::to_string(n_mgr) + "x" + std::to_string(n_cluster) +
           "x" + std::to_string(per_cluster);
  std::vector<SubordinateDesc> leaves = std::move(d.subordinates);
  d.subordinates.clear();
  for (unsigned j = 0; j < n_cluster; ++j) {
    SubordinateDesc s;
    s.name = "cl" + std::to_string(j);
    s.kind = SubordinateKind::kCluster;
    s.base = std::uint64_t{j} * per_cluster * 0x1'0000ull;
    s.size = std::uint64_t{per_cluster} * 0x1'0000ull;
    ClusterDesc c;
    c.id_shift = 8;
    c.bridge.req_latency = 1;
    c.bridge.rsp_latency = 1;
    c.bridge.id_remap = true;
    c.bridge.max_ids = 16;
    c.subordinates.assign(leaves.begin() + j * per_cluster,
                          leaves.begin() + (j + 1) * per_cluster);
    s.cluster = {std::move(c)};
    d.subordinates.push_back(std::move(s));
  }
  return d;
}

}  // namespace soc
