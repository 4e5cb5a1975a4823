// Full-system data-pipeline demo: the descriptor-based iDMA engine
// streams frames from DRAM (behind the LLC) through the crossbar and
// the TMU into the Ethernet IP, while a VCD waveform of the monitored
// link is dumped for inspection in GTKWave/Surfer.
//
// Build & run:  ./build/examples/dma_pipeline
// Then open:    /tmp/tmu_ethernet.vcd

#include <cstdio>

#include "axi/memory.hpp"
#include "sim/vcd.hpp"
#include "soc/builder.hpp"
#include "soc/idma.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

int main() {
  using namespace axi;
  using soc::CheshireMap;

  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.adaptive.enabled = true;
  cfg.adaptive.cycles_per_beat = 3;
  const auto sys = soc::SocBuilder::build(soc::cheshire_desc(cfg));
  sim::Simulator& sim = sys->sim();
  auto& ethernet = sys->get<soc::EthernetPeripheral>("ethernet");
  auto& eth_tmu = sys->get<tmu::Tmu>("tmu");
  auto& dma = sys->get<soc::IdmaEngine>("dma_engine");

  // Waveform of the monitored (manager-side) Ethernet link.
  sim::VcdWriter vcd("/tmp/tmu_ethernet.vcd");
  // Probing through the public component interfaces:
  vcd.probe("eth_writes_done", 16, [&] { return ethernet.writes_done(); });
  vcd.probe("eth_tx_level", 8, [&] { return ethernet.tx_fifo_level(); });
  vcd.probe("tmu_irq", 1, [&] { return std::uint64_t{eth_tmu.irq.read()}; });
  vcd.probe("tmu_severed", 1, [&] { return std::uint64_t{eth_tmu.severed()}; });
  vcd.probe("dma_beats", 16, [&] { return dma.beats_moved(); });
  sim.on_cycle([&](std::uint64_t c) { vcd.sample(c); });

  // Seed three frames in DRAM.
  auto& dram = sys->get<MemorySubordinate>("dram");
  for (int f = 0; f < 3; ++f) {
    for (int i = 0; i < 64 * 8; ++i) {
      dram.poke(CheshireMap::kDramBase + f * 0x400 + i,
                static_cast<std::uint8_t>(f * 31 + i));
    }
  }

  // Program the DMA: three 64-beat frame transfers DRAM -> Ethernet TX.
  for (int f = 0; f < 3; ++f) {
    dma.submit(soc::DmaDescriptor{
        CheshireMap::kDramBase + static_cast<axi::Addr>(f) * 0x400,
        CheshireMap::kEthTxWindow, 64});
  }

  sim.run_until([&] { return dma.descriptors_done() >= 3; }, 20000);
  const auto& llc = sys->get<soc::LastLevelCache>("llc");
  std::printf("pipeline done: %llu beats moved, %llu on the wire, "
              "LLC %llu hits / %llu misses, faults=%zu\n",
              static_cast<unsigned long long>(dma.beats_moved()),
              static_cast<unsigned long long>(ethernet.frames_txed()),
              static_cast<unsigned long long>(llc.hits()),
              static_cast<unsigned long long>(llc.misses()),
              eth_tmu.fault_log().size());

  // The Fc perf log doubles as a pipeline profiler.
  const auto& st = eth_tmu.write_guard().stats();
  std::printf("ethernet write phases (mean cycles): entry=%.1f data=%.1f "
              "resp=%.1f  (over %llu writes)\n",
              st.phase[1].mean(), st.phase[3].mean(), st.phase[4].mean(),
              static_cast<unsigned long long>(st.completed));
  vcd.flush();
  std::printf("waveform written to /tmp/tmu_ethernet.vcd\n");
  return 0;
}
