#include "tmu/tmu.hpp"

#include "sim/logger.hpp"
#include "sim/state.hpp"

namespace tmu {

Tmu::Tmu(std::string name, axi::Link& mst, axi::Link& sub, TmuConfig cfg)
    : sim::Module(std::move(name)),
      mst_(mst),
      sub_(sub),
      cfg_(cfg),
      wg_(cfg_),
      rg_(cfg_) {}

void Tmu::eval() {
  if (!cfg_.enabled) {
    sub_.req.write(mst_.req.read());
    mst_.rsp.write(sub_.rsp.read());
    irq.write(false);
    reset_req.write(false);
    return;
  }

  if (severed_) {
    // Request path severed: nothing reaches the subordinate.
    sub_.req.write(axi::AxiReq{});
    // Response path: TMU-generated aborts (slverr) towards the manager.
    axi::AxiRsp r{};
    r.aw_ready = false;
    r.ar_ready = false;
    r.w_ready = true;  // drain in-flight W beats so the manager unblocks
    if (!abort_b_.empty()) {
      r.b_valid = true;
      r.b = axi::BFlit{abort_b_.front().id, axi::Resp::kSlvErr};
    }
    if (!abort_r_.empty()) {
      r.r_valid = true;
      r.r = axi::RFlit{abort_r_.front().id, 0, axi::Resp::kSlvErr,
                       abort_r_.front().beats_left == 1};
    }
    mst_.rsp.write(r);
  } else {
    // Zero-latency pass-through with saturation gating.
    axi::AxiReq fwd = mst_.req.read();
    const bool w_ok = !fwd.aw_valid || wg_.can_admit(fwd.aw.id);
    const bool r_ok = !fwd.ar_valid || rg_.can_admit(fwd.ar.id);
    if (!w_ok) fwd.aw_valid = false;
    if (!r_ok) fwd.ar_valid = false;
    if (swallow_beats_ > 0) fwd.w_valid = false;  // eat stray beats
    sub_.req.write(fwd);

    axi::AxiRsp rsp = sub_.rsp.read();
    if (!w_ok) rsp.aw_ready = false;
    if (!r_ok) rsp.ar_ready = false;
    if (swallow_beats_ > 0) rsp.w_ready = true;
    mst_.rsp.write(rsp);
  }

  irq.write(irq_state_());
  reset_req.write(severed_ && cfg_.reset_on_fault && !ack_seen_);
}

bool Tmu::irq_state_() const {
  return cfg_.irq_enabled && irq_latched_;
}

void Tmu::log_lifecycle(LifecycleEvent::Kind k) {
  if (lifecycle_log_.size() < kLifecycleDepth) {
    lifecycle_log_.push_back(LifecycleEvent{cycle_, k});
  } else {
    ++lifecycle_dropped_;
  }
}

void Tmu::enter_severed() {
  log_lifecycle(LifecycleEvent::Kind::kSever);
  severed_ = true;
  ack_seen_ = false;
  undrained_beats_ = 0;
  w_idle_cycles_ = 0;
  abort_b_.clear();
  abort_r_.clear();

  // Abort every *accepted* outstanding transaction with SLVERR; drop
  // entries whose address handshake never completed (the manager still
  // holds valid and will be re-admitted after recovery).
  for (const int idx : wg_.ott().order()) {
    const LdEntry& e = wg_.ott().at(idx);
    if (!e.valid || !e.accepted) continue;
    abort_b_.push_back(AbortB{e.orig_id});
    const unsigned total = axi::beats(e.len);
    if (e.beats < total) undrained_beats_ += total - e.beats;
  }
  for (const int idx : rg_.ott().order()) {
    const LdEntry& e = rg_.ott().at(idx);
    if (!e.valid || !e.accepted) continue;
    const unsigned total = axi::beats(e.len);
    abort_r_.push_back(AbortR{e.orig_id, total - std::min(e.beats, total - 1)});
  }
  if (cfg_.reset_on_fault) {
    ++resets_requested_;
    log_lifecycle(LifecycleEvent::Kind::kResetReq);
  }
}

void Tmu::finish_recovery() {
  swallow_beats_ = undrained_beats_;
  wg_.clear();
  rg_.clear();
  severed_ = false;
  ack_seen_ = false;
  undrained_beats_ = 0;
  w_idle_cycles_ = 0;
  ++recoveries_;
  log_lifecycle(LifecycleEvent::Kind::kRecover);
  // Level IRQ stays asserted until software clears it (clear_irq), which
  // matches the paper's interrupt-driven recovery routine.
}

void Tmu::skip_ticks(std::uint64_t n) {
  cycle_ += n;
  if (cfg_.enabled) {
    wg_.skip_idle_cycles(n);
    rg_.skip_idle_cycles(n);
  }
}

void Tmu::tick() {
  if (!cfg_.enabled) {
    ++cycle_;
    tick_evt_ = false;  // eval() is a pure wire pass-through
    set_tick_idle(true);
    return;
  }

  const axi::AxiReq q = mst_.req.read();
  const axi::AxiRsp s = mst_.rsp.read();
  // Severed/scrub phases mutate eval state every edge; in normal
  // monitoring, only port activity or outstanding transactions (whose
  // budgets ripen against the cycle counter and whose saturation gates
  // admission) can move eval() outputs.
  tick_evt_ = true;

  if (severed_) {
    // Track abort handshakes.
    if (s.b_valid && q.b_ready && !abort_b_.empty()) {
      abort_b_.pop_front();
    }
    if (s.r_valid && q.r_ready && !abort_r_.empty()) {
      if (--abort_r_.front().beats_left == 0) abort_r_.pop_front();
    }
    // Drain in-flight W beats.
    if (q.w_valid && s.w_ready) {
      if (undrained_beats_ > 0) --undrained_beats_;
      w_idle_cycles_ = 0;
    } else {
      ++w_idle_cycles_;
    }
    if (reset_ack.read()) ack_seen_ = true;
    const bool drained = undrained_beats_ == 0 ||
                         w_idle_cycles_ >= kDrainGrace;
    if (ack_seen_ && abort_b_.empty() && abort_r_.empty() && drained) {
      finish_recovery();
    }
    ++cycle_;
    set_tick_idle(false);
    return;
  }

  // Post-recovery stray-beat swallowing: a manager whose write was
  // aborted mid-burst may still emit the old burst's tail. A new AW
  // acceptance means the manager moved on; stop swallowing then.
  if (swallow_beats_ > 0) {
    if (q.aw_valid && s.aw_ready) {
      swallow_beats_ = 0;  // manager moved on; monitor this AW normally
    } else {
      if (q.w_valid && s.w_ready) --swallow_beats_;
      ++cycle_;
      set_tick_idle(false);
      return;  // guards stay quiet while the channel is being scrubbed
    }
  }

  // Normal monitoring: guards observe the settled manager-side signals.
  const bool w_admit = q.aw_valid && wg_.can_admit(q.aw.id);
  const bool r_admit = q.ar_valid && rg_.can_admit(q.ar.id);
  wg_.observe(q, s, w_admit, cycle_);
  rg_.observe(q, s, r_admit, cycle_);

  const bool had_fault = !wg_.faults().empty() || !rg_.faults().empty();
  if (had_fault) {
    auto log_fault = [this](const FaultRecord& f) {
      sim::log(sim::LogLevel::kInfo, name(), cycle_) << f.describe();
      if (fault_log_.size() < cfg_.fault_log_depth) {
        fault_log_.push_back(f);
      } else {
        ++fault_log_dropped_;
      }
    };
    for (FaultRecord& f : wg_.faults()) log_fault(f);
    for (FaultRecord& f : rg_.faults()) log_fault(f);
    wg_.faults().clear();
    rg_.faults().clear();
    irq_latched_ = true;
    log_lifecycle(LifecycleEvent::Kind::kDetect);
    enter_severed();
  }

  ++cycle_;
  tick_evt_ = severed_ || q.aw_valid || q.w_valid || q.ar_valid ||
              s.b_valid || s.r_valid || !wg_.ott().order().empty() ||
              !rg_.ott().order().empty();
  // A quiet port with nothing outstanding repeats: the guards' next
  // observe() only ticks their prescalers.
  set_tick_idle(!tick_evt_);
}

void Tmu::reset() {
  wg_.clear();
  rg_.clear();
  severed_ = false;
  ack_seen_ = false;
  abort_b_.clear();
  abort_r_.clear();
  undrained_beats_ = 0;
  w_idle_cycles_ = 0;
  swallow_beats_ = 0;
  fault_log_.clear();
  fault_log_dropped_ = 0;
  lifecycle_log_.clear();
  lifecycle_dropped_ = 0;
  resets_requested_ = 0;
  recoveries_ = 0;
  cycle_ = 0;
  irq_latched_ = false;
  fault_read_ptr_ = 0;
  sub_.req.force(axi::AxiReq{});
  mst_.rsp.force(axi::AxiRsp{});
  irq.force(false);
  reset_req.force(false);
}

void Tmu::visit_state(sim::StateVisitor& v) {
  // Module-owned wires first (they are not part of any Soc link), then
  // both guards, then the sever/abort/recovery registers and logs.
  visit(v, irq);
  visit(v, reset_req);
  visit(v, reset_ack);
  visit(v, wg_);
  visit(v, rg_);
  visit(v, severed_);
  visit(v, ack_seen_);
  visit(v, abort_b_);
  visit(v, abort_r_);
  visit(v, undrained_beats_);
  visit(v, w_idle_cycles_);
  visit(v, swallow_beats_);
  visit(v, fault_log_);
  visit(v, fault_log_dropped_);
  visit(v, lifecycle_log_);
  visit(v, lifecycle_dropped_);
  visit(v, resets_requested_);
  visit(v, recoveries_);
  visit(v, cycle_);
  visit(v, tick_evt_);
  visit(v, irq_latched_);
  visit(v, fault_read_ptr_);
}

}  // namespace tmu
