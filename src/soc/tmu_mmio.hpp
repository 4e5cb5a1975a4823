#pragma once

#include <string>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"
#include "sim/state.hpp"
#include "tmu/tmu.hpp"

namespace soc {

/// Memory-mapped front-end for the TMU's software-visible register file
/// (§II-A: "a set of software-configurable registers"). Exposes
/// Tmu::read_reg / write_reg as a simple AXI4 subordinate so the SoC's
/// CPUs can configure budgets, prescaler and interrupt behaviour, and
/// read the fault log, over the bus.
///
/// Single-beat accesses only (bursts are answered but only the first
/// beat touches a register; remaining beats read zero / are ignored),
/// which matches a regbus-style peripheral window.
class TmuMmio : public sim::Module {
 public:
  TmuMmio(std::string name, axi::Link& link, tmu::Tmu& target,
          axi::Addr base)
      : sim::Module(std::move(name)), link_(link), tmu_(target),
        base_(base) {}

  void eval() override {
    axi::AxiRsp s{};
    s.aw_ready = !w_open_ && !b_pending_;
    s.w_ready = w_open_;
    if (b_pending_) {
      s.b_valid = true;
      s.b = axi::BFlit{b_id_, axi::Resp::kOkay};
    }
    s.ar_ready = !r_open_;
    if (r_open_) {
      s.r_valid = true;
      s.r = axi::RFlit{r_id_, r_data_, axi::Resp::kOkay,
                       r_beat_ + 1 == r_beats_};
    }
    link_.rsp.write(s);
  }

  void tick() override {
    const axi::AxiReq q = link_.req.read();
    const axi::AxiRsp s = link_.rsp.read();
    // Edge activity: register-file state only moves on handshakes or
    // while a burst window is open.
    tick_evt_ = w_open_ || b_pending_ || r_open_ || q.aw_valid ||
                q.w_valid || q.ar_valid;

    if (axi::aw_fire(q, s)) {
      w_open_ = true;
      w_addr_ = q.aw.addr - base_;
      w_first_ = true;
      b_id_ = q.aw.id;
    }
    if (axi::w_fire(q, s)) {
      if (w_first_) {
        tmu_.write_reg(static_cast<std::uint32_t>(w_addr_ & 0xFFF),
                       static_cast<std::uint32_t>(q.w.data));
        w_first_ = false;
        ++reg_writes_;
      }
      if (q.w.last) {
        w_open_ = false;
        b_pending_ = true;
      }
    }
    if (axi::b_fire(q, s)) b_pending_ = false;

    if (axi::ar_fire(q, s)) {
      r_open_ = true;
      r_id_ = q.ar.id;
      r_beats_ = axi::beats(q.ar.len);
      r_beat_ = 0;
      r_data_ = tmu_.read_reg(
          static_cast<std::uint32_t>((q.ar.addr - base_) & 0xFFF));
      ++reg_reads_;
    }
    if (axi::r_fire(q, s)) {
      ++r_beat_;
      r_data_ = 0;  // burst tail reads as zero
      if (r_beat_ == r_beats_) r_open_ = false;
    }
  }

  void reset() override {
    w_open_ = false;
    w_first_ = false;
    b_pending_ = false;
    r_open_ = false;
    r_beat_ = r_beats_ = 0;
    r_data_ = 0;
    reg_reads_ = reg_writes_ = 0;
    link_.rsp.force(axi::AxiRsp{});
  }

  std::uint64_t reg_reads() const { return reg_reads_; }
  std::uint64_t reg_writes() const { return reg_writes_; }

  /// State serde (sim/state.hpp): the open-burst windows and counters
  /// (the guarded TMU's register file travels with the TMU itself).
  void visit_state(sim::StateVisitor& v) override {
    visit(v, w_open_);
    visit(v, w_first_);
    visit(v, b_pending_);
    visit(v, b_id_);
    visit(v, w_addr_);
    visit(v, r_open_);
    visit(v, r_id_);
    visit(v, r_beat_);
    visit(v, r_beats_);
    visit(v, r_data_);
    visit(v, reg_reads_);
    visit(v, reg_writes_);
    visit(v, tick_evt_);
  }

 private:
  axi::Link& link_;
  tmu::Tmu& tmu_;
  axi::Addr base_;

  bool w_open_ = false;
  bool w_first_ = false;
  bool b_pending_ = false;
  axi::Id b_id_ = 0;
  axi::Addr w_addr_ = 0;

  bool r_open_ = false;
  axi::Id r_id_ = 0;
  unsigned r_beat_ = 0, r_beats_ = 0;
  axi::Data r_data_ = 0;

  std::uint64_t reg_reads_ = 0, reg_writes_ = 0;
};

}  // namespace soc
