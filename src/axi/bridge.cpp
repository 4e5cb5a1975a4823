#include "axi/bridge.hpp"

#include "sim/state.hpp"

#include <stdexcept>

namespace axi {

Bridge::Bridge(std::string name, Link& up, Link& down, BridgeConfig cfg)
    : sim::Module(std::move(name)),
      up_(up),
      down_(down),
      cfg_(cfg),
      wr_ids_(0),
      rd_ids_(0) {
  const auto err = [this](const std::string& msg) {
    throw std::invalid_argument("Bridge '" + this->name() + "': " + msg);
  };
  if ((cfg_.req_latency == 0) != (cfg_.rsp_latency == 0)) {
    err("mixed zero/non-zero latencies (a transparent bridge must be "
        "transparent in both directions)");
  }
  if (transparent() && cfg_.id_remap) {
    err("id_remap needs a latched bridge (latency >= 1)");
  }
  if (cfg_.id_remap && cfg_.max_ids == 0) err("id_remap with max_ids = 0");
  if (cfg_.id_remap && cfg_.max_ids > IdRemapper::kMaxSlots) {
    err("id_remap with max_ids = " + std::to_string(cfg_.max_ids) +
        " above 256 (tIDs are 8 bits)");
  }
  if (!transparent() && cfg_.fifo_depth == 0) err("fifo_depth = 0");
  if (cfg_.id_remap) {
    wr_ids_ = IdRemapper(cfg_.max_ids);
    rd_ids_ = IdRemapper(cfg_.max_ids);
  }
  tick_evt_ = !transparent();
}

void Bridge::eval() {
  if (transparent()) {
    down_.req.write(up_.req.read());
    up_.rsp.write(down_.rsp.read());
    return;
  }

  const AxiReq uq = up_.req.read();

  // Downstream manager port: ripened queue heads drive the request
  // channels; response readies track upbound queue space.
  AxiReq dq{};
  if (!aw_q_.empty() && aw_q_.front().ready_at <= cycle_) {
    dq.aw_valid = true;
    dq.aw = aw_q_.front().flit;
  }
  if (!w_q_.empty() && w_q_.front().ready_at <= cycle_) {
    dq.w_valid = true;
    dq.w = w_q_.front().flit;
  }
  if (!ar_q_.empty() && ar_q_.front().ready_at <= cycle_) {
    dq.ar_valid = true;
    dq.ar = ar_q_.front().flit;
  }
  dq.b_ready = b_q_.size() < cfg_.fifo_depth;
  dq.r_ready = r_q_.size() < cfg_.fifo_depth;
  down_.req.write(dq);

  // Upstream subordinate port: request readies track downbound queue
  // space (and, remapping, slot availability for the offered ID);
  // ripened upbound heads drive the response channels.
  AxiRsp us{};
  us.aw_ready = aw_q_.size() < cfg_.fifo_depth &&
                (!cfg_.id_remap || wr_ids_.can_admit(uq.aw.id));
  us.w_ready = w_q_.size() < cfg_.fifo_depth;
  us.ar_ready = ar_q_.size() < cfg_.fifo_depth &&
                (!cfg_.id_remap || rd_ids_.can_admit(uq.ar.id));
  if (!b_q_.empty() && b_q_.front().ready_at <= cycle_) {
    us.b_valid = true;
    us.b = b_q_.front().flit;
  }
  if (!r_q_.empty() && r_q_.front().ready_at <= cycle_) {
    us.r_valid = true;
    us.r = r_q_.front().flit;
  }
  up_.rsp.write(us);
}

void Bridge::tick() {
  if (transparent()) {
    set_tick_idle(true);  // no registered state at all
    return;
  }

  const AxiReq uq = up_.req.read();
  const AxiRsp us = up_.rsp.read();
  const AxiReq dq = down_.req.read();
  const AxiRsp ds = down_.rsp.read();

  if (clear_inflight_) {
    aw_q_.clear();
    w_q_.clear();
    ar_q_.clear();
    b_q_.clear();
    r_q_.clear();
    wr_ids_.clear();
    rd_ids_.clear();
    clear_inflight_ = false;
    ++cycle_;
    tick_evt_ = true;  // queues flushed: every output may drop
    set_tick_idle(false);
    return;
  }

  bool act = false;

  // Downstream handshakes: retire downbound heads, capture responses
  // into the upbound queues (restoring the original ID when remapping;
  // a tID the remapper does not know — possible only after hw_reset
  // dropped the mapping mid-flight — passes through untranslated).
  if (aw_fire(dq, ds)) {
    aw_q_.pop_front();
    act = true;
  }
  if (w_fire(dq, ds)) {
    w_q_.pop_front();
    act = true;
  }
  if (ar_fire(dq, ds)) {
    ar_q_.pop_front();
    act = true;
  }
  if (b_fire(dq, ds)) {
    BFlit b = ds.b;
    if (cfg_.id_remap && wr_ids_.busy(b.id)) {
      const auto tid = static_cast<std::uint8_t>(b.id);
      b.id = wr_ids_.original_id(tid);
      wr_ids_.release(tid);
    }
    b_q_.push_back({b, cycle_ + cfg_.rsp_latency});
    act = true;
  }
  if (r_fire(dq, ds)) {
    RFlit r = ds.r;
    if (cfg_.id_remap && rd_ids_.busy(r.id)) {
      const auto tid = static_cast<std::uint8_t>(r.id);
      r.id = rd_ids_.original_id(tid);
      if (r.last) rd_ids_.release(tid);
    }
    r_q_.push_back({r, cycle_ + cfg_.rsp_latency});
    act = true;
  }

  // Upstream handshakes: stage requests downbound (eval gated ready on
  // can_admit, so admit cannot fail here; keep the original ID if it
  // somehow does), retire delivered responses.
  if (aw_fire(uq, us)) {
    AwFlit f = uq.aw;
    if (cfg_.id_remap) {
      if (const auto t = wr_ids_.admit(f.id)) f.id = *t;
    }
    aw_q_.push_back({f, cycle_ + cfg_.req_latency});
    act = true;
  }
  if (w_fire(uq, us)) {
    w_q_.push_back({uq.w, cycle_ + cfg_.req_latency});
    act = true;
  }
  if (ar_fire(uq, us)) {
    ArFlit f = uq.ar;
    if (cfg_.id_remap) {
      if (const auto t = rd_ids_.admit(f.id)) f.id = *t;
    }
    ar_q_.push_back({f, cycle_ + cfg_.req_latency});
    act = true;
  }
  if (b_fire(uq, us)) {
    b_q_.pop_front();
    ++writes_forwarded_;
    act = true;
  }
  if (r_fire(uq, us)) {
    if (us.r.last) ++reads_forwarded_;
    r_q_.pop_front();
    act = true;
  }

  ++cycle_;
  // Non-empty queues keep ripening against cycle_, so eval can change
  // until the bridge drains; a quiet, empty edge provably cannot.
  tick_evt_ = act || !aw_q_.empty() || !w_q_.empty() || !ar_q_.empty() ||
              !b_q_.empty() || !r_q_.empty();
  // A quiet edge repeats with the same inputs: only cycle_ moves.
  set_tick_idle(!tick_evt_);
}

void Bridge::reset() {
  aw_q_.clear();
  w_q_.clear();
  ar_q_.clear();
  b_q_.clear();
  r_q_.clear();
  wr_ids_.clear();
  rd_ids_.clear();
  cycle_ = 0;
  writes_forwarded_ = reads_forwarded_ = 0;
  clear_inflight_ = false;
  tick_evt_ = !transparent();
  down_.req.force(AxiReq{});
  up_.rsp.force(AxiRsp{});
}

void Bridge::visit_state(sim::StateVisitor& v) {
  visit(v, aw_q_);
  visit(v, w_q_);
  visit(v, ar_q_);
  visit(v, b_q_);
  visit(v, r_q_);
  visit(v, wr_ids_);
  visit(v, rd_ids_);
  visit(v, cycle_);
  visit(v, writes_forwarded_);
  visit(v, reads_forwarded_);
  visit(v, clear_inflight_);
  visit(v, tick_evt_);
}

}  // namespace axi
