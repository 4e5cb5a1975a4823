#include "trace/replay.hpp"

#include "sim/state.hpp"

namespace trace {

void TraceTrafficGen::visit_state(sim::StateVisitor& v) {
  visit(v, aw_);
  visit(v, w_);
  visit(v, ar_);
  visit(v, cycle_);
  visit(v, tick_evt_);
}

TraceTrafficGen::TraceTrafficGen(std::string name, axi::Link& link)
    : sim::Module(std::move(name)), link_(link) {}

void TraceTrafficGen::set_stream(const TraceBuffer& buf) {
  aw_ = ChannelPlan{};
  w_ = ChannelPlan{};
  ar_ = ChannelPlan{};
  // Split the record stream into per-channel presentation plans,
  // folding each retract record into its presentation's window. A
  // retract with no open presentation (a stream captured mid-run) is
  // dropped — there is nothing to withdraw.
  const auto plan_of = [&](Channel ch) -> ChannelPlan* {
    switch (ch) {
      case Channel::kAw: return &aw_;
      case Channel::kW: return &w_;
      case Channel::kAr: return &ar_;
      case Channel::kB:
      case Channel::kR: return nullptr;  // environment-driven; not replayed
    }
    return nullptr;
  };
  for (const TraceRecord& r : buf.records) {
    ChannelPlan* c = plan_of(r.ch);
    if (c == nullptr) continue;
    if (r.retract) {
      if (!c->pres.empty() && c->pres.back().retract == kNoRetract) {
        c->pres.back().retract = r.cycle;
      }
    } else {
      c->pres.push_back(Presentation{r.cycle, kNoRetract, r});
    }
  }
  cycle_ = 0;
  tick_evt_ = true;
  notify_state_change();
}

std::uint64_t TraceTrafficGen::events_replayed() const {
  return aw_.idx + w_.idx + ar_.idx;
}

void TraceTrafficGen::eval() {
  axi::AxiReq q{};  // rebuilt from the plan every pass
  if (const Presentation* p = aw_.current(cycle_)) {
    q.aw_valid = true;
    q.aw = axi::AwFlit{p->rec.id, p->rec.addr, p->rec.len, p->rec.size,
                       static_cast<axi::Burst>(p->rec.burst)};
  }
  if (const Presentation* p = w_.current(cycle_)) {
    q.w_valid = true;
    q.w = axi::WFlit{p->rec.data, p->rec.strb, p->rec.last};
  }
  if (const Presentation* p = ar_.current(cycle_)) {
    q.ar_valid = true;
    q.ar = axi::ArFlit{p->rec.id, p->rec.addr, p->rec.len, p->rec.size,
                       static_cast<axi::Burst>(p->rec.burst)};
  }
  // Always ready for responses — the policy the default managers record
  // under (b_ready_delay / r_ready_delay 0); see the class comment.
  q.b_ready = true;
  q.r_ready = true;
  link_.req.write(q);
}

bool TraceTrafficGen::advance(ChannelPlan& c, bool fired) {
  bool moved = false;
  // A handshake consumes the live presentation (valid only comes from
  // us, so a fire without one is impossible on the recording topology;
  // guard anyway for divergent environments).
  if (fired && c.current(cycle_) != nullptr) {
    ++c.idx;
    moved = true;
  }
  return moved;
}

void TraceTrafficGen::tick() {
  const axi::AxiReq q = link_.req.read();
  const axi::AxiRsp s = link_.rsp.read();

  bool moved = false;
  moved |= advance(aw_, axi::aw_fire(q, s));
  moved |= advance(w_, axi::w_fire(q, s));
  moved |= advance(ar_, axi::ar_fire(q, s));

  ++cycle_;

  // Presentations whose recorded retract cycle has arrived without a
  // handshake are withdrawn now (their eval window [cycle, retract) just
  // closed); the recorded re-presentation, if any, is the next event.
  const auto skip_retracted = [&](ChannelPlan& c) {
    while (c.idx < c.pres.size() && c.pres[c.idx].retract != kNoRetract &&
           cycle_ >= c.pres[c.idx].retract) {
      ++c.idx;
      moved = true;
    }
  };
  skip_retracted(aw_);
  skip_retracted(w_);
  skip_retracted(ar_);

  // Edge activity: a consumed event changes what eval presents, and so
  // does an event whose start cycle is exactly now. A quiet edge with
  // nothing newly eligible leaves eval()'s output bit-identical, which
  // is what lets the event-driven scheduler idle a finished replay at
  // zero evals.
  const auto newly_eligible = [&](const ChannelPlan& c) {
    return c.idx < c.pres.size() && c.pres[c.idx].cycle == cycle_;
  };
  tick_evt_ = moved || newly_eligible(aw_) || newly_eligible(w_) ||
              newly_eligible(ar_);
}

void TraceTrafficGen::reset() {
  aw_.idx = w_.idx = ar_.idx = 0;
  cycle_ = 0;
  tick_evt_ = true;
  link_.req.force(axi::AxiReq{});
}

}  // namespace trace
