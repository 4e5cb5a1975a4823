#include "axi/traffic_gen.hpp"

#include "axi/addr.hpp"
#include "sim/logger.hpp"
#include "sim/state.hpp"

namespace axi {

TrafficGenerator::TrafficGenerator(std::string name, Link& link,
                                   std::uint64_t seed)
    : sim::Module(std::move(name)), link_(link), rng_(seed) {}

void TrafficGenerator::push(const TxnDesc& d) {
  PendingIssue p;
  p.desc = d;
  p.issue_cycle = cycle_;
  if (d.is_write) {
    aw_queue_.push_back(p);
  } else {
    ar_queue_.push_back(p);
  }
  notify_state_change();
}

void TrafficGenerator::maybe_spawn_random() {
  if (!random_.enabled) return;
  if (outstanding() + pending_to_issue() >= random_.max_outstanding) return;
  if (!rng_.chance(random_.p_new_txn)) return;
  TxnDesc d;
  d.is_write = rng_.chance(random_.write_fraction);
  d.id = static_cast<Id>(rng_.range(random_.id_min, random_.id_max));
  d.len = static_cast<std::uint8_t>(rng_.range(random_.len_min, random_.len_max));
  d.size = random_.size;
  const std::uint64_t nbytes = beat_bytes(d.size);
  // Align and keep the burst inside one 4 KiB page.
  Addr a = rng_.range(random_.addr_min, random_.addr_max) & ~(nbytes - 1);
  if (!within_4k(a, d.size, d.len)) a &= ~Addr{0xFFF};
  d.addr = a;
  push(d);
}

void TrafficGenerator::eval() {
  AxiReq q{};  // rebuilt from registers every pass

  if (!aw_queue_.empty() &&
      outstanding() < max_outstanding_) {
    q.aw_valid = true;
    q.aw = AwFlit{aw_queue_.front().desc.id, aw_queue_.front().desc.addr,
                  aw_queue_.front().desc.len, aw_queue_.front().desc.size,
                  aw_queue_.front().desc.burst};
  }
  if (!ar_queue_.empty() && outstanding() < max_outstanding_) {
    q.ar_valid = true;
    q.ar = ArFlit{ar_queue_.front().desc.id, ar_queue_.front().desc.addr,
                  ar_queue_.front().desc.len, ar_queue_.front().desc.size,
                  ar_queue_.front().desc.burst};
  }
  if (!w_streams_.empty() && w_streams_.front().wait == 0) {
    const WStream& s = w_streams_.front();
    const Addr a = beat_addr(s.desc.addr, s.desc.size, s.desc.len,
                             s.desc.burst, s.next_beat);
    q.w_valid = true;
    q.w = WFlit{pattern_data(a), 0xFF,
                s.next_beat + 1 == beats(s.desc.len)};
  }
  q.b_ready = b_ready_reg_;
  q.r_ready = r_ready_reg_;
  link_.req.write(q);
}

void TrafficGenerator::complete(InFlight& t, Resp resp, bool is_write) {
  TxnRecord rec;
  rec.desc = t.desc;
  rec.issue_cycle = t.issue_cycle;
  rec.accept_cycle = t.accept_cycle;
  rec.complete_cycle = cycle_;
  rec.resp = resp;
  records_.push_back(rec);
  if (resp != Resp::kOkay && resp != Resp::kExOkay) ++error_responses_;
  const auto lat = static_cast<double>(cycle_ - t.issue_cycle);
  if (is_write) {
    write_latency_.add(lat);
    --outstanding_writes_;
  } else {
    read_latency_.add(lat);
    --outstanding_reads_;
  }
}

void TrafficGenerator::tick() {
  const AxiReq q = link_.req.read();
  const AxiRsp s = link_.rsp.read();
  const bool b_ready0 = b_ready_reg_;
  const bool r_ready0 = r_ready_reg_;

  // --- AW accept ---
  if (aw_fire(q, s)) {
    PendingIssue p = aw_queue_.front();
    aw_queue_.pop_front();
    InFlight f;
    f.desc = p.desc;
    f.issue_cycle = p.issue_cycle;
    f.accept_cycle = cycle_;
    write_wait_[p.desc.id].push_back(f);
    ++outstanding_writes_;
    WStream ws;
    ws.desc = p.desc;
    ws.wait = w_start_delay_;
    w_streams_.push_back(ws);
  }

  // --- W beat sent ---
  if (w_fire(q, s)) {
    WStream& ws = w_streams_.front();
    ++ws.next_beat;
    if (ws.next_beat == beats(ws.desc.len)) {
      w_streams_.pop_front();
    } else {
      ws.wait = w_gap_;
    }
  } else if (!w_streams_.empty() && w_streams_.front().wait > 0) {
    --w_streams_.front().wait;
  }

  // --- AR accept ---
  if (ar_fire(q, s)) {
    PendingIssue p = ar_queue_.front();
    ar_queue_.pop_front();
    InFlight f;
    f.desc = p.desc;
    f.issue_cycle = p.issue_cycle;
    f.accept_cycle = cycle_;
    read_wait_[p.desc.id].push_back(f);
    ++outstanding_reads_;
  }

  // --- B response ---
  if (b_fire(q, s)) {
    auto it = write_wait_.find(s.b.id);
    if (it != write_wait_.end() && !it->second.empty()) {
      complete(it->second.front(), s.b.resp, /*is_write=*/true);
      it->second.pop_front();
    } else {
      sim::log(sim::LogLevel::kWarn, name(), cycle_)
          << "unrequested B response, id=" << s.b.id;
    }
    b_wait_ = 0;
  }
  // B ready-delay bookkeeping (register feeding next cycle's b_ready).
  if (b_ready_delay_ == 0) {
    b_ready_reg_ = true;
  } else if (s.b_valid && !q.b_ready) {
    b_ready_reg_ = ++b_wait_ >= b_ready_delay_;
  } else {
    b_ready_reg_ = false;
    if (!s.b_valid) b_wait_ = 0;
  }

  // --- R beats ---
  if (r_fire(q, s)) {
    auto it = read_wait_.find(s.r.id);
    if (it != read_wait_.end() && !it->second.empty()) {
      InFlight& f = it->second.front();
      const Addr a = beat_addr(f.desc.addr, f.desc.size, f.desc.len,
                               f.desc.burst, f.beats_seen);
      if (s.r.resp == Resp::kOkay && s.r.data != pattern_data(a) &&
          s.r.data != 0) {
        // 0 means the location was never written (memory default).
        ++data_mismatches_;
      }
      ++f.beats_seen;
      if (s.r.last) {
        complete(f, s.r.resp, /*is_write=*/false);
        it->second.pop_front();
      }
    } else {
      sim::log(sim::LogLevel::kWarn, name(), cycle_)
          << "unrequested R beat, id=" << s.r.id;
    }
    r_wait_ = 0;
  }
  if (r_ready_delay_ == 0) {
    r_ready_reg_ = true;
  } else if (s.r_valid && !q.r_ready) {
    r_ready_reg_ = ++r_wait_ >= r_ready_delay_;
  } else {
    r_ready_reg_ = false;
    if (!s.r_valid) r_wait_ = 0;
  }

  maybe_spawn_random();
  ++cycle_;
  // Edge activity: handshakes move the issue queues / W streams (and
  // outstanding gating), the ready-delay registers feed next cycle's
  // b_ready/r_ready, and non-empty queues keep ripening (W gaps, start
  // delays, outstanding caps releasing). A quiet edge with drained
  // queues and stable ready registers cannot change eval() outputs.
  tick_evt_ = aw_fire(q, s) || w_fire(q, s) || ar_fire(q, s) ||
              b_fire(q, s) || r_fire(q, s) || !aw_queue_.empty() ||
              !ar_queue_.empty() || !w_streams_.empty() ||
              b_ready_reg_ != b_ready0 || r_ready_reg_ != r_ready0;
  // Idle: such a quiet edge repeats with these inputs unless a
  // ready-delay counter is running or the random stream draws (below
  // its outstanding cap it draws every cycle).
  const bool draws = random_.enabled &&
                     outstanding() + pending_to_issue() <
                         random_.max_outstanding;
  set_tick_idle(!tick_evt_ && !draws &&
                (b_ready_delay_ == 0 || !s.b_valid || q.b_ready) &&
                (r_ready_delay_ == 0 || !s.r_valid || q.r_ready));
}

void TrafficGenerator::reset() {
  aw_queue_.clear();
  ar_queue_.clear();
  w_streams_.clear();
  write_wait_.clear();
  read_wait_.clear();
  outstanding_writes_ = outstanding_reads_ = 0;
  b_wait_ = r_wait_ = 0;
  b_ready_reg_ = r_ready_reg_ = true;
  cycle_ = 0;
  records_.clear();
  data_mismatches_ = 0;
  error_responses_ = 0;
  write_latency_ = {};
  read_latency_ = {};
  link_.req.force(AxiReq{});
}

void TrafficGenerator::visit_state(sim::StateVisitor& v) {
  visit(v, rng_);
  visit(v, random_);
  visit(v, aw_queue_);
  visit(v, ar_queue_);
  visit(v, w_streams_);
  visit(v, write_wait_);
  visit(v, read_wait_);
  visit(v, outstanding_writes_);
  visit(v, outstanding_reads_);
  visit(v, b_ready_delay_);
  visit(v, b_wait_);
  visit(v, r_ready_delay_);
  visit(v, r_wait_);
  visit(v, b_ready_reg_);
  visit(v, r_ready_reg_);
  visit(v, w_gap_);
  visit(v, w_start_delay_);
  visit(v, max_outstanding_);
  visit(v, cycle_);
  visit(v, tick_evt_);
  visit(v, records_);
  visit(v, data_mismatches_);
  visit(v, error_responses_);
  visit(v, write_latency_);
  visit(v, read_latency_);
}

}  // namespace axi
