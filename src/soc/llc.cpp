#include "soc/llc.hpp"

#include <algorithm>

#include "axi/addr.hpp"
#include "sim/state.hpp"

namespace soc {

void LastLevelCache::visit_state(sim::StateVisitor& v) {
  visit(v, tags_);
  if (!v.saving() && tags_.size() != cfg_.num_lines) {
    v.fail("llc '" + name() + "': snapshot has " +
           std::to_string(tags_.size()) + " tag lines, cache has " +
           std::to_string(cfg_.num_lines));
  }
  // Line data as one bulk block (size fixed by the config).
  std::uint64_t nd = data_.size();
  v.count(nd);
  if (!v.saving() && nd != data_.size()) {
    v.fail("llc '" + name() + "': snapshot data array is " +
           std::to_string(nd) + " bytes, cache holds " +
           std::to_string(data_.size()));
  }
  if (!data_.empty()) v.raw(data_.data(), data_.size());
  visit(v, hit_q_);
  visit(v, miss_q_);
  visit(v, open_writes_);
  visit(v, hits_);
  visit(v, misses_);
  visit(v, cycle_);
  visit(v, tick_evt_);
}

bool LastLevelCache::burst_hits(const axi::ArFlit& ar) const {
  for (unsigned beat = 0; beat < axi::beats(ar.len); ++beat) {
    const axi::Addr a = axi::beat_addr(ar.addr, ar.size, ar.len, ar.burst,
                                       beat);
    if (!line_present(a)) return false;
  }
  return true;
}

bool LastLevelCache::line_owed(std::uint64_t idx) const {
  for (const HitRead& h : hit_q_) {
    for (unsigned beat = h.next_beat; beat < axi::beats(h.ar.len); ++beat) {
      const axi::Addr a = axi::beat_addr(h.ar.addr, h.ar.size, h.ar.len,
                                         h.ar.burst, beat);
      if (line_index(a) == idx) return true;
    }
  }
  return false;
}

axi::Data LastLevelCache::read_line_beat(axi::Addr a) const {
  const std::uint64_t idx = line_index(a);
  const std::uint64_t off = (a & ~(axi::Addr{7})) % kLineBytes;
  axi::Data d = 0;
  for (unsigned i = 0; i < 8; ++i) {
    d |= axi::Data{data_[idx * kLineBytes + off + i]} << (8 * i);
  }
  return d;
}

void LastLevelCache::write_line_beat(axi::Addr a, axi::Data d,
                                     std::uint8_t strb, bool allocate) {
  const std::uint64_t idx = line_index(a);
  const bool present = line_present(a);
  if (!present && !allocate) return;
  if (!present) {
    // Allocate: claim the line (partial-line allocation is acceptable
    // for this behavioural model; the backing memory remains the source
    // of truth through the write-through policy).
    tags_[idx] = line_tag(a);
    std::fill_n(data_.begin() + static_cast<long>(idx * kLineBytes),
                kLineBytes, 0);
  }
  const std::uint64_t off = (a & ~(axi::Addr{7})) % kLineBytes;
  for (unsigned i = 0; i < 8; ++i) {
    if (strb & (1u << i)) {
      data_[idx * kLineBytes + off + i] =
          static_cast<std::uint8_t>(d >> (8 * i));
    }
  }
}

void LastLevelCache::eval() {
  const axi::AxiReq uq = up_.req.read();
  const axi::AxiRsp ds = down_.rsp.read();

  axi::AxiReq dq = uq;  // write path is a pure write-through pass-through
  axi::AxiRsp us{};
  us.aw_ready = ds.aw_ready;
  us.w_ready = ds.w_ready;
  us.b_valid = ds.b_valid;
  us.b = ds.b;
  dq.b_ready = uq.b_ready;

  // ---- AR path: hit -> absorb locally, miss -> forward ----
  bool ar_is_hit = false;
  bool ar_waits = false;
  if (uq.ar_valid) {
    ar_is_hit = burst_hits(uq.ar);
    // A hit behind an outstanding miss of the same ID must not overtake
    // it (AXI same-ID ordering), so treat it as a miss.
    for (const MissRead& m : miss_q_) {
      if (m.ar.id == uq.ar.id) {
        ar_is_hit = false;
        break;
      }
    }
    // Likewise a miss must not overtake a queued hit of its ID: miss
    // data wins the R mux below, so the miss waits until those drain.
    if (!ar_is_hit) {
      for (const HitRead& h : hit_q_) {
        if (h.ar.id == uq.ar.id) {
          ar_waits = true;
          break;
        }
      }
    }
  }
  if (uq.ar_valid && (ar_is_hit || ar_waits)) {
    dq.ar_valid = false;
    us.ar_ready = ar_is_hit && hit_q_.size() < 8;
  } else {
    us.ar_ready = ds.ar_ready;
  }

  // ---- R mux: downstream (miss) data first, then local hits ----
  const bool down_r = ds.r_valid;
  if (down_r) {
    us.r_valid = true;
    us.r = ds.r;
    dq.r_ready = uq.r_ready;
  } else {
    dq.r_ready = false;
    if (!hit_q_.empty() && hit_q_.front().ready_at <= cycle_) {
      const HitRead& h = hit_q_.front();
      const axi::Addr a = axi::beat_addr(h.ar.addr, h.ar.size, h.ar.len,
                                         h.ar.burst, h.next_beat);
      us.r_valid = true;
      us.r = axi::RFlit{h.ar.id, read_line_beat(a), axi::Resp::kOkay,
                        h.next_beat + 1 == axi::beats(h.ar.len)};
    }
  }

  down_.req.write(dq);
  up_.rsp.write(us);
}

void LastLevelCache::tick() {
  const axi::AxiReq uq = up_.req.read();
  const axi::AxiRsp us = up_.rsp.read();
  const axi::AxiReq dq = down_.req.read();
  const axi::AxiRsp ds = down_.rsp.read();

  // Track the open write burst to compute beat addresses for the
  // write-through cache update.
  if (axi::aw_fire(uq, us)) {
    open_writes_.push_back({uq.aw, 0});
  }
  if (axi::w_fire(uq, us) && !open_writes_.empty()) {
    auto& [aw, beats_got] = open_writes_.front();
    const axi::Addr a =
        axi::beat_addr(aw.addr, aw.size, aw.len, aw.burst, beats_got);
    write_line_beat(a, uq.w.data, uq.w.strb, /*allocate=*/false);
    ++beats_got;
    if (uq.w.last || beats_got == axi::beats(aw.len)) {
      open_writes_.pop_front();
    }
  }

  // AR accepted: route to the hit queue or the miss tracker.
  if (axi::ar_fire(uq, us)) {
    if (dq.ar_valid && ds.ar_ready) {
      // Forwarded to memory in the same cycle: a miss.
      miss_q_.push_back(MissRead{uq.ar, 0});
      ++misses_;
    } else {
      hit_q_.push_back(HitRead{uq.ar, 0, cycle_ + cfg_.hit_latency});
      ++hits_;
    }
  }

  // R beats delivered upstream.
  if (axi::r_fire(uq, us)) {
    if (ds.r_valid && dq.r_ready) {
      // Miss data returning: allocate as it streams, but never over a
      // line a queued hit still reads (hits read their lines by index).
      for (auto it = miss_q_.begin(); it != miss_q_.end(); ++it) {
        if (it->ar.id == us.r.id) {
          const axi::Addr a = axi::beat_addr(it->ar.addr, it->ar.size,
                                             it->ar.len, it->ar.burst,
                                             it->beats_seen);
          write_line_beat(a, us.r.data, 0xFF,
                          /*allocate=*/!line_owed(line_index(a)));
          ++it->beats_seen;
          if (us.r.last) miss_q_.erase(it);
          break;
        }
      }
    } else if (!hit_q_.empty()) {
      HitRead& h = hit_q_.front();
      ++h.next_beat;
      if (h.next_beat == axi::beats(h.ar.len)) {
        hit_q_.pop_front();
      }
    }
  }

  ++cycle_;
  // Edge activity: tick state only mutates on handshakes (valids
  // required), and non-empty queues ripen against cycle_ (hit latency).
  tick_evt_ = !hit_q_.empty() || !miss_q_.empty() || !open_writes_.empty() ||
              uq.aw_valid || uq.w_valid || uq.ar_valid || us.b_valid ||
              us.r_valid || ds.b_valid || ds.r_valid;
  // A quiet edge repeats with the same inputs: only cycle_ moves.
  set_tick_idle(!tick_evt_);
}

void LastLevelCache::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalid);
  std::fill(data_.begin(), data_.end(), 0);
  hit_q_.clear();
  miss_q_.clear();
  open_writes_.clear();
  hits_ = misses_ = 0;
  cycle_ = 0;
  down_.req.force(axi::AxiReq{});
  up_.rsp.force(axi::AxiRsp{});
}

}  // namespace soc
