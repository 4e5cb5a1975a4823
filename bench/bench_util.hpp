#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/kernel.hpp"
#include "soc/builder.hpp"
#include "soc/reset_unit.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

namespace bench {

inline void header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n(%s)\n\n", title.c_str(), paper_ref.c_str());
}

inline void rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// IP-level testbench: gen -> [mgr injector] -> TMU -> [sub injector] ->
/// memory, with the external reset unit. A view over
/// SocBuilder::build(soc::ip_testbench_desc(cfg)), the same netlist the
/// campaign fault trials run, or over a variant of that desc. Used by
/// the Fig. 8/9 benches and the ablations.
struct IpBench {
  std::unique_ptr<soc::Soc> netlist;
  axi::TrafficGenerator& gen;
  fault::FaultInjector& inj_m;
  tmu::Tmu& tmu;
  fault::FaultInjector& inj_s;
  axi::MemorySubordinate& mem;
  soc::ResetUnit& rst;
  sim::Simulator& s;

  explicit IpBench(const tmu::TmuConfig& cfg)
      : IpBench(soc::ip_testbench_desc(cfg)) {}
  explicit IpBench(const soc::SocDesc& desc)
      : netlist(soc::SocBuilder::build(desc)),
        gen(netlist->get<axi::TrafficGenerator>("gen")),
        inj_m(netlist->get<fault::FaultInjector>("inj_m")),
        tmu(netlist->get<tmu::Tmu>("tmu")),
        inj_s(netlist->get<fault::FaultInjector>("inj_s")),
        mem(netlist->get<axi::MemorySubordinate>("mem")),
        rst(netlist->get<soc::ResetUnit>("rst")),
        s(netlist->sim()) {}

  fault::FaultInjector& injector_for(fault::FaultPoint p) {
    return fault::is_manager_side(p) ? inj_m : inj_s;
  }

  /// Runs until the TMU flags a fault; returns the detection cycle, or
  /// UINT64_MAX if nothing was detected within the budget.
  std::uint64_t run_to_detection(std::uint64_t max_cycles = 5000) {
    if (!s.run_until([&] { return tmu.any_fault(); }, max_cycles)) {
      return UINT64_MAX;
    }
    return tmu.fault_log().front().cycle;
  }
};

}  // namespace bench
