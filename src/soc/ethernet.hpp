#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"

namespace soc {

/// Behavioural model of an RGMII-Ethernet-style AXI4 peripheral (the
/// endpoint the paper's system-level evaluation monitors).
///
/// Address map (relative to its base):
///   [0x0000, 0x0FFF]  MMIO registers (status, counters)
///   [0x1000, ...   ]  TX frame window: written beats enter the TX FIFO
///                     and drain at line rate; reads return loopback RX.
///
/// Realistic properties relevant to the experiment:
///  * limited TX FIFO: long bursts get back-pressured when the MAC
///    drains slower than the bus writes (stressing the W phase);
///  * loopback: transmitted frames reappear in the RX FIFO;
///  * hw_reset() clears FIFOs and in-flight state (the recovery target).
struct EthernetConfig {
  std::size_t tx_fifo_beats = 64;
  std::uint32_t drain_every = 1;    ///< MAC drains one beat / N cycles
  std::uint32_t b_latency = 1;
  std::uint32_t r_first_latency = 2;
  std::size_t max_outstanding = 8;
  axi::Addr mmio_size = 0x1000;
  bool operator==(const EthernetConfig&) const = default;
};

class EthernetPeripheral : public sim::Module {
 public:
  EthernetPeripheral(std::string name, axi::Link& link,
                     EthernetConfig cfg = {});

  void eval() override;
  void tick() override;
  void reset() override;
  void visit_inputs(sim::InputVisitor& in) override {
    in.tick_input(link_.req);
    in.tick_input(link_.rsp);
  }
  void skip_ticks(std::uint64_t n) override { cycle_ += n; }

  /// State serde (sim/state.hpp): FIFOs, in-flight queues and counters.
  void visit_state(sim::StateVisitor& v) override;

  /// External hardware reset (from the reset unit): clears FIFOs and all
  /// in-flight transaction state; counters survive (MMIO-visible).
  void hw_reset() {
    clear_pending_ = true;
    notify_state_change();
  }

  std::uint64_t frames_txed() const { return beats_drained_; }
  std::size_t tx_fifo_level() const { return tx_fifo_.size(); }
  std::size_t rx_fifo_level() const { return rx_fifo_.size(); }
  std::uint64_t writes_done() const { return writes_done_; }
  std::uint64_t reads_done() const { return reads_done_; }
  std::uint64_t hw_resets() const { return hw_resets_; }

  const EthernetConfig& config() const { return cfg_; }

 private:
  struct WriteTxn {
    axi::AwFlit aw;
    unsigned beats_got = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, aw);
      visit(v, beats_got);
    }
  };
  struct ReadTxn {
    axi::ArFlit ar;
    unsigned next_beat = 0;
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, ar);
      visit(v, next_beat);
      visit(v, ready_at);
    }
  };
  struct PendingB {
    axi::Id id = 0;
    std::uint64_t ready_at = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, id);
      visit(v, ready_at);
    }
  };

  bool is_mmio(axi::Addr a) const { return (a & 0xFFFF) < cfg_.mmio_size; }
  std::uint64_t mmio_read(axi::Addr a) const;

  axi::Link& link_;
  EthernetConfig cfg_;

  std::deque<axi::Data> tx_fifo_;
  std::deque<axi::Data> rx_fifo_;
  std::deque<WriteTxn> write_q_;
  std::deque<PendingB> b_q_;
  std::deque<ReadTxn> read_q_;

  std::uint32_t drain_cnt_ = 0;
  std::uint64_t beats_drained_ = 0;
  std::uint64_t writes_done_ = 0;
  std::uint64_t reads_done_ = 0;
  std::uint64_t hw_resets_ = 0;
  std::uint64_t cycle_ = 0;
  bool clear_pending_ = false;
};

}  // namespace soc
