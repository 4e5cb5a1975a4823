#include "tmu/guard.hpp"

#include "axi/link.hpp"

namespace tmu {

namespace {
/// Marks an entry as already-faulted so it is flagged exactly once.
/// Reuses the counter running flag: a stopped counter means "no longer
/// monitored" (completed or faulted).
bool monitored(const LdEntry& e) { return e.valid && e.counter.running(); }

/// Accumulated outstanding traffic (§II-F): data beats that older
/// transactions in the OTT still have to transfer.
std::uint32_t beats_ahead(const Ott& ott) {
  std::uint32_t total = 0;
  for (int idx : ott.order()) {
    const LdEntry& e = ott.at(idx);
    if (!e.valid) continue;
    const unsigned remaining = axi::beats(e.len) > e.beats
                                   ? axi::beats(e.len) - e.beats
                                   : 0;
    total += remaining;
  }
  return total;
}

/// The EI-front write currently owning the W channel, or -1.
int active_w_entry(const Ott& ott) {
  for (int idx : ott.order()) {
    const LdEntry& e = ott.at(idx);
    if (!e.valid || !e.accepted) continue;
    const auto ph = static_cast<WritePhase>(e.phase);
    if (ph == WritePhase::kAwRdyWVld || ph == WritePhase::kWVldWRdy ||
        ph == WritePhase::kWFirstWLast) {
      return idx;
    }
  }
  return -1;
}
}  // namespace

template <Dir D>
void Guard<D>::flag(FaultKind kind, const LdEntry* e, Phase phase,
                    std::uint64_t cycle, axi::Id id_hint) {
  FaultRecord f;
  f.cycle = cycle;
  f.is_write = kIsWrite;
  f.kind = kind;
  f.phase_valid = cfg_->variant == Variant::kFullCounter;
  f.phase = static_cast<std::uint8_t>(phase);
  if (e != nullptr) {
    f.id = e->orig_id;
    f.tid = e->tid;
    f.addr = e->addr;
    const unsigned pi = cfg_->variant == Variant::kFullCounter
                            ? static_cast<unsigned>(phase)
                            : 0u;
    f.elapsed = e->phase_cycles[pi];
    f.budget = e->phase_budget[pi];
  } else {
    f.id = id_hint;
  }
  faults_.push_back(f);
  if (kind == FaultKind::kTimeout) {
    ++stats_.timeouts;
  } else {
    ++stats_.protocol_faults;
  }
}

template <Dir D>
void Guard<D>::enqueue_pending(const axi::AxFlit& ax, std::uint64_t cycle) {
  const auto tid = remap_.admit(ax.id);
  if (!tid) return;  // gated by the TMU; should not happen when admitted
  // A step written through the register file takes effect only while no
  // counter is armed, so every armed limit matches its pulse rate.
  if (ott_.order().empty()) prescaler_.set_step(cfg_->prescaler_step);
  const std::uint32_t ahead = beats_ahead(ott_);
  const int idx = ott_.enqueue(*tid, ax.id, ax.addr, ax.len, cycle);
  if (idx < 0) {
    remap_.release(*tid);
    return;
  }
  LdEntry& e = ott_.at(idx);
  e.phase = static_cast<std::uint8_t>(kAddrPhase);
  if (cfg_->variant == Variant::kFullCounter) {
    e.phase_budget = kIsWrite ? budget_.write_budgets(ax.len, ahead)
                              : budget_.read_budgets(ax.len, ahead);
  } else {
    e.phase_budget[0] = budget_.tc_total(ax.len, ahead);
  }
  e.counter.arm(e.phase_budget[0], prescaler_.step(), cfg_->sticky_bit);
  pending_ = idx;
  pending_flit_ = ax;
  ++stats_.enqueued;
}

template <Dir D>
void Guard<D>::advance_phase(LdEntry& e, Phase next) {
  e.phase = static_cast<std::uint8_t>(next);
  if (next == Phase::kDone) {
    e.counter.stop();
  } else if (cfg_->variant == Variant::kFullCounter) {
    e.counter.arm(e.phase_budget[e.phase], prescaler_.step(),
                  cfg_->sticky_bit);
  }
  // Tc: the single whole-transaction counter keeps running.
}

template <Dir D>
void Guard<D>::complete(int idx) {
  LdEntry& e = ott_.at(idx);
  std::uint32_t total = 0;
  for (unsigned p = 0; p < kNumPhases; ++p) total += e.phase_cycles[p];
  stats_.total_latency.add(static_cast<double>(total));
  if (cfg_->variant == Variant::kFullCounter) {
    for (unsigned p = 0; p < kNumPhases; ++p) {
      stats_.phase[p].add(static_cast<double>(e.phase_cycles[p]));
    }
    TxnPerfRecord rec;
    rec.is_write = kIsWrite;
    rec.id = e.orig_id;
    rec.addr = e.addr;
    rec.len = e.len;
    rec.phase_cycles = e.phase_cycles;
    rec.total_cycles = total;
    if (perf_log_.size() < cfg_->perf_log_depth) {
      perf_log_.push_back(rec);
    } else {
      ++perf_dropped_;
    }
  }
  ++stats_.completed;
  remap_.release(e.tid);
  ott_.remove(idx);
}

template <Dir D>
void Guard<D>::pulse_counters(std::uint64_t cycle) {
  // Measured per-phase cycle counts advance every clock; the watchdog
  // counters advance on prescaler pulses only.
  const bool pulse = prescaler_.tick();
  for (const int idx : ott_.order()) {  // no per-tick snapshot alloc
    LdEntry& e = ott_.at(idx);
    if (!e.valid) continue;
    const bool fc = cfg_->variant == Variant::kFullCounter;
    const unsigned pi = fc ? std::min<unsigned>(e.phase, kNumPhases - 1) : 0u;
    if (e.phase != static_cast<std::uint8_t>(Phase::kDone)) {
      ++e.phase_cycles[pi];
    }
    if (pulse && monitored(e)) {
      if (e.counter.pulse()) {
        flag(FaultKind::kTimeout, &e,
             fc ? static_cast<Phase>(e.phase) : kAddrPhase, cycle);
        e.counter.stop();
      }
    }
  }
}

template <Dir D>
void Guard<D>::observe(const axi::AxiReq& q, const axi::AxiRsp& s,
                       bool admitted, std::uint64_t cycle) {
  // ---- AW / AR channel ----
  const axi::AxFlit& ax = kIsWrite ? q.aw : q.ar;
  const bool ax_valid = kIsWrite ? q.aw_valid : q.ar_valid;
  if (ax_valid) {
    if (pending_ < 0 && admitted) {
      enqueue_pending(ax, cycle);
    } else if (pending_ >= 0 && !(ax == pending_flit_)) {
      // Payload must stay stable while valid is held.
      flag(FaultKind::kHandshake, &ott_.at(pending_), kAddrPhase, cycle);
      pending_flit_ = ax;
    }
  } else if (prev_addr_valid_ && pending_ >= 0) {
    // Valid dropped before ready: handshake violation. Abandon the
    // entry: the manager withdrew the request. It is the tail of its
    // tID's FIFO; older same-ID transactions stay outstanding.
    LdEntry& e = ott_.at(pending_);
    flag(FaultKind::kHandshake, &e, kAddrPhase, cycle);
    remap_.release(e.tid);
    ott_.remove(pending_);
    pending_ = -1;
  }

  if ((kIsWrite ? axi::aw_fire(q, s) : axi::ar_fire(q, s)) && pending_ >= 0) {
    LdEntry& e = ott_.at(pending_);
    e.accepted = true;
    advance_phase(e, kDataWaitPhase);
    pending_ = -1;
  }

  if constexpr (kIsWrite) {
    // ---- W channel ----
    // The owning write is looked up only when a beat is presented (a W
    // handshake needs w_valid).
    if (q.w_valid) {
      const int widx = active_w_entry(ott_);
      if (widx < 0) {
        // W beat with no open write transaction (EI-table order violation).
        if (!w_orphan_flagged_) {
          flag(FaultKind::kHandshake, nullptr, WritePhase::kWVldWRdy, cycle);
          w_orphan_flagged_ = true;
        }
      } else {
        LdEntry& e = ott_.at(widx);
        if (static_cast<WritePhase>(e.phase) == WritePhase::kAwRdyWVld) {
          advance_phase(e, WritePhase::kWVldWRdy);
        }
        if (s.w_ready) {
          ++e.beats;
          ++stats_.beats;
          w_orphan_flagged_ = false;
          const bool should_be_last = e.beats == axi::beats(e.len);
          if (q.w.last != should_be_last) {
            flag(FaultKind::kHandshake, &e, WritePhase::kWFirstWLast, cycle);
          }
          if (q.w.last || should_be_last) {
            advance_phase(e, WritePhase::kWLastBVld);
          } else if (static_cast<WritePhase>(e.phase) ==
                     WritePhase::kWVldWRdy) {
            advance_phase(e, WritePhase::kWFirstWLast);
          }
        }
      }
    }

    // ---- B channel ----
    if (s.b_valid) {
      const auto tid = remap_.lookup(s.b.id);
      const int head = tid ? ott_.head_of(*tid) : -1;
      if (!tid || head < 0) {
        if (!rsp_orphan_flagged_) {
          flag(FaultKind::kUnrequested, nullptr, WritePhase::kWLastBVld,
               cycle, s.b.id);
          rsp_orphan_flagged_ = true;
        }
      } else {
        LdEntry& e = ott_.at(head);
        const auto ph = static_cast<WritePhase>(e.phase);
        if (ph == WritePhase::kWLastBVld) {
          advance_phase(e, WritePhase::kBVldBRdy);
        } else if (ph != WritePhase::kBVldBRdy && monitored(e)) {
          // Response for a transaction that has not finished its data.
          flag(FaultKind::kIdMismatch, &e, ph, cycle, s.b.id);
          e.counter.stop();
        }
        if (axi::b_fire(q, s) && (ph == WritePhase::kWLastBVld ||
                                  ph == WritePhase::kBVldBRdy)) {
          complete(head);
        }
      }
    } else {
      rsp_orphan_flagged_ = false;
    }
  } else {
    // ---- R channel ----
    if (s.r_valid) {
      const auto tid = remap_.lookup(s.r.id);
      const int head = tid ? ott_.head_of(*tid) : -1;
      if (!tid || head < 0 || !ott_.at(head).accepted) {
        if (!rsp_orphan_flagged_) {
          flag(FaultKind::kUnrequested, nullptr, ReadPhase::kArRdyRVld, cycle,
               s.r.id);
          rsp_orphan_flagged_ = true;
        }
      } else {
        LdEntry& e = ott_.at(head);
        if (static_cast<ReadPhase>(e.phase) == ReadPhase::kArRdyRVld) {
          advance_phase(e, ReadPhase::kRVldRRdy);
        }
        if (axi::r_fire(q, s)) {
          ++e.beats;
          ++stats_.beats;
          const bool should_be_last = e.beats == axi::beats(e.len);
          if (s.r.last != should_be_last) {
            flag(FaultKind::kHandshake, &e, ReadPhase::kRVldRLast, cycle);
          }
          if (s.r.last || should_be_last) {
            advance_phase(e, ReadPhase::kDone);
            complete(head);
          } else if (static_cast<ReadPhase>(e.phase) == ReadPhase::kRVldRRdy) {
            advance_phase(e, ReadPhase::kRVldRLast);
          }
        }
      }
    } else {
      rsp_orphan_flagged_ = false;
    }
  }

  prev_addr_valid_ = ax_valid;
  pulse_counters(cycle);
}

template <Dir D>
void Guard<D>::clear() {
  remap_.clear();
  ott_.clear();
  prescaler_.reset();
  pending_ = -1;
  prev_addr_valid_ = false;
  w_orphan_flagged_ = false;
  rsp_orphan_flagged_ = false;
  faults_.clear();
}

template class Guard<Dir::kWrite>;
template class Guard<Dir::kRead>;

}  // namespace tmu
