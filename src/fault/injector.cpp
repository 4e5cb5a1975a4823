#include "fault/injector.hpp"

namespace fault {

void FaultInjector::eval() {
  axi::AxiReq q = up_.req.read();
  axi::AxiRsp s = down_.rsp.read();
  const bool active = triggered();

  if (active) {
    // Every stuck-signal mutation is applied to BOTH directions so the
    // two sides agree a handshake did not happen (otherwise the far side
    // would observe phantom transfers).
    switch (point_) {
      // ---- manager-side request mutations ----
      case FaultPoint::kWValidStuck:
        q.w_valid = false;
        s.w_ready = false;
        break;
      case FaultPoint::kAwValidDrop:
        q.aw_valid = false;
        s.aw_ready = false;
        break;
      case FaultPoint::kWLastEarly:
        if (q.w_valid) q.w.last = true;
        break;
      case FaultPoint::kBReadyStuck:
        q.b_ready = false;
        s.b_valid = false;  // hide the response the manager won't take
        break;
      case FaultPoint::kRReadyStuck:
        q.r_ready = false;
        s.r_valid = false;
        break;
      // ---- subordinate-side response mutations ----
      case FaultPoint::kAwReadyStuck:
        s.aw_ready = false;
        q.aw_valid = false;
        break;
      case FaultPoint::kWReadyStuck:
      case FaultPoint::kMidBurstWStall:
        s.w_ready = false;
        q.w_valid = false;
        break;
      case FaultPoint::kBValidStuck:
        s.b_valid = false;
        q.b_ready = false;
        break;
      case FaultPoint::kBWrongId:
        if (s.b_valid) s.b.id ^= 0x3F;
        break;
      case FaultPoint::kSpuriousB:
        if (!s.b_valid) {
          s.b_valid = true;
          s.b = axi::BFlit{0x3A, axi::Resp::kOkay};
        }
        break;
      case FaultPoint::kArReadyStuck:
        s.ar_ready = false;
        q.ar_valid = false;
        break;
      case FaultPoint::kRValidStuck:
      case FaultPoint::kMidBurstRStall:
        s.r_valid = false;
        q.r_ready = false;
        break;
      case FaultPoint::kRWrongId:
        if (s.r_valid) s.r.id ^= 0x3F;
        break;
      case FaultPoint::kSpuriousR:
        if (!s.r_valid) {
          s.r_valid = true;
          s.r = axi::RFlit{0x3A, 0xDEAD, axi::Resp::kOkay, true};
        }
        break;
      case FaultPoint::kNone:
        break;
    }
  }

  down_.req.write(q);
  up_.rsp.write(s);
}

void FaultInjector::tick() {
  // Count beats on the *downstream* (post-mutation) signals so trigger
  // conditions reflect what actually happened on the wire.
  const axi::AxiReq q = down_.req.read();
  const axi::AxiRsp s = up_.rsp.read();
  if (axi::w_fire(q, s)) ++w_beats_;
  if (axi::r_fire(q, s)) ++r_beats_;

  if (!started_ && triggered()) {
    started_ = true;
    start_cycle_ = cycle_;
  }
  ++cycle_;
  // Disarmed, eval() is a pure wire pass-through, so wire wakeups cover
  // it; armed, triggered() can flip as cycle/beat counters advance, so
  // every edge is eval-relevant until disarm (arm/disarm themselves
  // notify precisely).
  tick_evt_ = point_ != FaultPoint::kNone;
  set_tick_idle(!tick_evt_ && !axi::w_fire(q, s) && !axi::r_fire(q, s));
}

void FaultInjector::reset() {
  started_ = false;
  start_cycle_ = 0;
  cycle_ = 0;
  w_beats_ = 0;
  r_beats_ = 0;
  down_.req.force(axi::AxiReq{});
  up_.rsp.force(axi::AxiRsp{});
}

}  // namespace fault
