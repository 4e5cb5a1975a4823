#include "soc/ethernet.hpp"

#include "sim/state.hpp"

namespace soc {

void EthernetPeripheral::visit_state(sim::StateVisitor& v) {
  visit(v, tx_fifo_);
  visit(v, rx_fifo_);
  visit(v, write_q_);
  visit(v, b_q_);
  visit(v, read_q_);
  visit(v, drain_cnt_);
  visit(v, beats_drained_);
  visit(v, writes_done_);
  visit(v, reads_done_);
  visit(v, hw_resets_);
  visit(v, cycle_);
  visit(v, tick_evt_);
  visit(v, clear_pending_);
}

EthernetPeripheral::EthernetPeripheral(std::string name, axi::Link& link,
                                       EthernetConfig cfg)
    : sim::Module(std::move(name)), link_(link), cfg_(cfg) {}

std::uint64_t EthernetPeripheral::mmio_read(axi::Addr a) const {
  switch (a & 0xFFF) {
    case 0x00: return tx_fifo_.size();         // TX level
    case 0x08: return rx_fifo_.size();         // RX level
    case 0x10: return beats_drained_;          // beats transmitted
    case 0x18: return writes_done_;            // completed writes
    case 0x20: return hw_resets_;              // reset count
    default: return 0;
  }
}

void EthernetPeripheral::eval() {
  axi::AxiRsp s{};

  s.aw_ready = write_q_.size() < cfg_.max_outstanding;

  // W ready only while the TX FIFO has room (line-rate back-pressure).
  const bool write_open = !write_q_.empty();
  s.w_ready = write_open && tx_fifo_.size() < cfg_.tx_fifo_beats;

  if (!b_q_.empty() && b_q_.front().ready_at <= cycle_) {
    s.b_valid = true;
    s.b = axi::BFlit{b_q_.front().id, axi::Resp::kOkay};
  }

  s.ar_ready = read_q_.size() < cfg_.max_outstanding;

  if (!read_q_.empty() && read_q_.front().ready_at <= cycle_) {
    const ReadTxn& t = read_q_.front();
    const axi::Addr a = t.ar.addr + t.next_beat * 8;
    axi::Data d;
    if (is_mmio(t.ar.addr)) {
      d = mmio_read(a);
    } else {
      // RX window: stream the loopback FIFO contents (non-destructive
      // peek in eval; the pop happens at the handshake in tick()).
      d = t.next_beat < rx_fifo_.size() ? rx_fifo_[t.next_beat] : 0;
    }
    s.r_valid = true;
    s.r = axi::RFlit{t.ar.id, d, axi::Resp::kOkay,
                     t.next_beat + 1 == axi::beats(t.ar.len)};
  }

  link_.rsp.write(s);
}

void EthernetPeripheral::tick() {
  const axi::AxiReq q = link_.req.read();
  const axi::AxiRsp s = link_.rsp.read();

  if (clear_pending_) {
    write_q_.clear();
    b_q_.clear();
    read_q_.clear();
    tx_fifo_.clear();
    rx_fifo_.clear();
    drain_cnt_ = 0;
    clear_pending_ = false;
    ++hw_resets_;
    ++cycle_;
    tick_evt_ = true;  // FIFOs/queues flushed: outputs may drop
    set_tick_idle(false);
    return;
  }

  if (axi::aw_fire(q, s)) {
    write_q_.push_back(WriteTxn{q.aw, 0});
  }

  if (axi::w_fire(q, s)) {
    WriteTxn& t = write_q_.front();
    if (!is_mmio(t.aw.addr)) tx_fifo_.push_back(q.w.data);
    ++t.beats_got;
    if (q.w.last || t.beats_got == axi::beats(t.aw.len)) {
      b_q_.push_back(PendingB{t.aw.id, cycle_ + cfg_.b_latency});
      write_q_.pop_front();
      ++writes_done_;
    }
  }

  if (axi::b_fire(q, s)) {
    b_q_.pop_front();
  }

  if (axi::ar_fire(q, s)) {
    read_q_.push_back(ReadTxn{q.ar, 0, cycle_ + cfg_.r_first_latency});
  }

  if (axi::r_fire(q, s)) {
    ReadTxn& t = read_q_.front();
    ++t.next_beat;
    if (t.next_beat == axi::beats(t.ar.len)) {
      if (!is_mmio(t.ar.addr)) {
        // Consume the beats that were streamed out of the RX FIFO.
        const unsigned consumed =
            std::min<std::size_t>(t.next_beat, rx_fifo_.size());
        rx_fifo_.erase(rx_fifo_.begin(), rx_fifo_.begin() + consumed);
      }
      read_q_.pop_front();
      ++reads_done_;
    }
  }

  // MAC drain: one beat every drain_every cycles, looped back into RX.
  if (!tx_fifo_.empty()) {
    if (++drain_cnt_ >= cfg_.drain_every) {
      drain_cnt_ = 0;
      rx_fifo_.push_back(tx_fifo_.front());
      tx_fifo_.pop_front();
      ++beats_drained_;
      if (rx_fifo_.size() > 4 * cfg_.tx_fifo_beats) rx_fifo_.pop_front();
    }
  }

  ++cycle_;
  // Edge activity: handshakes mutate the queues, pending B/R entries
  // ripen against cycle_, and a non-empty TX FIFO keeps draining into
  // RX (moving the MMIO counters and the w_ready backpressure).
  tick_evt_ = axi::aw_fire(q, s) || axi::w_fire(q, s) || axi::b_fire(q, s) ||
              axi::ar_fire(q, s) || axi::r_fire(q, s) || q.aw_valid ||
              q.w_valid || q.ar_valid || !write_q_.empty() ||
              !b_q_.empty() || !read_q_.empty() || !tx_fifo_.empty();
  // A quiet edge repeats with the same inputs: only cycle_ moves.
  set_tick_idle(!tick_evt_);
}

void EthernetPeripheral::reset() {
  write_q_.clear();
  b_q_.clear();
  read_q_.clear();
  tx_fifo_.clear();
  rx_fifo_.clear();
  drain_cnt_ = 0;
  beats_drained_ = 0;
  writes_done_ = 0;
  reads_done_ = 0;
  hw_resets_ = 0;
  cycle_ = 0;
  clear_pending_ = false;
  link_.rsp.force(axi::AxiRsp{});
}

}  // namespace soc
