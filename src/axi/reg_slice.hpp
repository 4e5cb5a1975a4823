#pragma once

#include <optional>
#include <string>

#include "axi/link.hpp"
#include "axi/types.hpp"
#include "sim/module.hpp"
#include "sim/state.hpp"

namespace axi {

/// Full AXI4 register slice (spill register on all five channels), the
/// standard timing-closure element between interconnect stages. Adds
/// exactly one cycle of latency per direction and is fully
/// throughput-preserving (two-entry skid buffer per channel).
///
/// Used in tests/benches to prove the TMU tolerates pipelined paths —
/// its budgets measure end-to-end time, not combinational adjacency.
class RegSlice : public sim::Module {
 public:
  RegSlice(std::string name, Link& up, Link& down)
      : sim::Module(std::move(name)), up_(up), down_(down) {}

  void eval() override {
    // Downstream request: driven from the skid buffers.
    AxiReq q{};
    if (aw_.full_or_half()) {
      q.aw_valid = true;
      q.aw = aw_.front();
    }
    if (w_.full_or_half()) {
      q.w_valid = true;
      q.w = w_.front();
    }
    if (ar_.full_or_half()) {
      q.ar_valid = true;
      q.ar = ar_.front();
    }
    q.b_ready = !b_.full();
    q.r_ready = !r_.full();
    down_.req.write(q);

    // Upstream response: readiness of the request buffers + buffered
    // response beats.
    AxiRsp s{};
    s.aw_ready = !aw_.full();
    s.w_ready = !w_.full();
    s.ar_ready = !ar_.full();
    if (b_.full_or_half()) {
      s.b_valid = true;
      s.b = b_.front();
    }
    if (r_.full_or_half()) {
      s.r_valid = true;
      s.r = r_.front();
    }
    up_.rsp.write(s);
  }

  void tick() override {
    const AxiReq uq = up_.req.read();
    const AxiRsp us = up_.rsp.read();
    const AxiReq dq = down_.req.read();
    const AxiRsp ds = down_.rsp.read();

    // Pops first (free a slot), then pushes: a full buffer still
    // sustains one transfer per cycle.
    const bool pop = (dq.aw_valid && ds.aw_ready) ||
                     (dq.w_valid && ds.w_ready) ||
                     (dq.ar_valid && ds.ar_ready) ||
                     (us.b_valid && uq.b_ready) || (us.r_valid && uq.r_ready);
    if (dq.aw_valid && ds.aw_ready) aw_.pop();
    if (dq.w_valid && ds.w_ready) w_.pop();
    if (dq.ar_valid && ds.ar_ready) ar_.pop();
    if (us.b_valid && uq.b_ready) b_.pop();
    if (us.r_valid && uq.r_ready) r_.pop();

    const bool push = (uq.aw_valid && us.aw_ready) ||
                      (uq.w_valid && us.w_ready) ||
                      (uq.ar_valid && us.ar_ready) ||
                      (ds.b_valid && dq.b_ready) || (ds.r_valid && dq.r_ready);
    if (uq.aw_valid && us.aw_ready) aw_.push(uq.aw);
    if (uq.w_valid && us.w_ready) w_.push(uq.w);
    if (uq.ar_valid && us.ar_ready) ar_.push(uq.ar);
    if (ds.b_valid && dq.b_ready) b_.push(ds.b);
    if (ds.r_valid && dq.r_ready) r_.push(ds.r);

    // The skid buffers (the only eval-relevant state) move exactly on
    // handshakes.
    tick_evt_ = pop || push;
  }

  void visit_state(sim::StateVisitor& v) override {
    visit(v, tick_evt_);
    visit(v, aw_);
    visit(v, w_);
    visit(v, ar_);
    visit(v, b_);
    visit(v, r_);
  }

  void reset() override {
    aw_.clear();
    w_.clear();
    ar_.clear();
    b_.clear();
    r_.clear();
    down_.req.force(AxiReq{});
    up_.rsp.force(AxiRsp{});
  }

 private:
  /// Two-entry skid buffer.
  template <typename T>
  class Skid {
   public:
    bool full() const { return count_ == 2; }
    bool full_or_half() const { return count_ >= 1; }
    const T& front() const { return buf_[rd_]; }
    void push(const T& v) {
      buf_[(rd_ + count_) % 2] = v;
      ++count_;
    }
    void pop() {
      rd_ = (rd_ + 1) % 2;
      --count_;
    }
    void clear() {
      count_ = 0;
      rd_ = 0;
    }

    template <typename V>
    void visit_fields(V& v) {
      visit(v, buf_[0]);
      visit(v, buf_[1]);
      visit(v, rd_);
      visit(v, count_);
    }

   private:
    T buf_[2]{};
    unsigned rd_ = 0;
    unsigned count_ = 0;
  };

  Link& up_;
  Link& down_;
  Skid<AwFlit> aw_;
  Skid<WFlit> w_;
  Skid<ArFlit> ar_;
  Skid<BFlit> b_;
  Skid<RFlit> r_;
};

}  // namespace axi
