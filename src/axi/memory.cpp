#include "axi/memory.hpp"

#include <algorithm>
#include <stdexcept>

#include "axi/addr.hpp"
#include "sim/state.hpp"

namespace axi {

MemorySubordinate::MemorySubordinate(std::string name, Link& link,
                                     MemoryConfig cfg)
    : sim::Module(std::move(name)), link_(link), cfg_(cfg) {
  if (cfg_.bank.enabled) {
    const std::uint32_t n = cfg_.bank.num_banks;
    if (n == 0 || (n & (n - 1)) != 0) {
      throw std::invalid_argument("MemorySubordinate '" + this->name() +
                                  "': bank.num_banks must be a power of two");
    }
    bank_row_.assign(n, kRowClosed);
  }
}

std::uint32_t MemorySubordinate::bank_access(Addr a) {
  if (!cfg_.bank.enabled) return 0;
  const BankTimingConfig& b = cfg_.bank;
  const std::uint64_t bank = dram_bank(a, b.col_bits, b.num_banks);
  const std::uint64_t row = dram_row(a, b.col_bits, b.num_banks);
  std::uint64_t& open = bank_row_[bank];
  std::uint32_t extra;
  if (open == row) {
    extra = b.t_hit;
    ++row_hits_;
  } else if (open == kRowClosed) {
    extra = b.t_miss;
    ++row_misses_;
  } else {
    extra = b.t_conflict;
    ++row_conflicts_;
  }
  open = b.open_page ? row : kRowClosed;
  return extra;
}

void MemorySubordinate::store_beat(Addr a, std::uint8_t size, Data data,
                                   std::uint8_t strb) {
  const std::uint64_t nbytes = beat_bytes(size);
  const Addr base = a & ~(nbytes - 1);
  Page& p = touch_page(base);
  const std::uint64_t off = base % kPageBytes;
  for (std::uint64_t i = 0; i < nbytes && i < 8; ++i) {
    if (strb & (1u << i)) {
      p[off + i] = static_cast<std::uint8_t>(data >> (8 * i));
    }
  }
}

Data MemorySubordinate::load_beat(Addr a, std::uint8_t size) const {
  const std::uint64_t nbytes = beat_bytes(size);
  const Addr base = a & ~(nbytes - 1);
  const Page* p = find_page(base);
  if (p == nullptr) return 0;
  const std::uint64_t off = base % kPageBytes;
  Data d = 0;
  for (std::uint64_t i = 0; i < nbytes && i < 8; ++i) {
    d |= Data{(*p)[off + i]} << (8 * i);
  }
  return d;
}

std::uint64_t MemorySubordinate::peek_beat(Addr a, std::uint8_t size) const {
  return load_beat(a, size);
}

void MemorySubordinate::eval() {
  AxiRsp s{};

  // AW ready: after the configured wait, when there is queue space.
  s.aw_ready = write_q_.size() < cfg_.max_outstanding &&
               aw_wait_ >= cfg_.aw_accept_latency;

  // W ready: a write burst is open and the beat-rate counter allows.
  const bool write_open = !write_q_.empty() && !write_q_.front().data_done;
  s.w_ready = write_open && w_rate_cnt_ == 0;

  // B: oldest pending response whose latency elapsed.
  if (!b_q_.empty() && b_q_.front().ready_at <= cycle_) {
    s.b_valid = true;
    s.b = BFlit{b_q_.front().id, b_q_.front().resp};
  }

  // AR ready.
  s.ar_ready = read_q_.size() < cfg_.max_outstanding &&
               ar_wait_ >= cfg_.ar_accept_latency;

  // R: oldest read streams beats.
  if (!read_q_.empty() && read_q_.front().ready_at <= cycle_ &&
      r_rate_cnt_ == 0) {
    const ReadTxn& t = read_q_.front();
    const Addr a =
        beat_addr(t.ar.addr, t.ar.size, t.ar.len, t.ar.burst, t.next_beat);
    s.r_valid = true;
    s.r = RFlit{t.ar.id, in_error_region(a) ? Data{0} : load_beat(a, t.ar.size),
                in_error_region(a) ? Resp::kSlvErr : Resp::kOkay,
                t.next_beat + 1 == beats(t.ar.len)};
  }

  link_.rsp.write(s);
}

void MemorySubordinate::tick() {
  const AxiReq q = link_.req.read();
  const AxiRsp s = link_.rsp.read();

  if (clear_inflight_) {
    write_q_.clear();
    b_q_.clear();
    read_q_.clear();
    aw_wait_ = ar_wait_ = 0;
    w_rate_cnt_ = r_rate_cnt_ = 0;
    close_all_rows();  // a domain reset precharges every bank
    clear_inflight_ = false;
    ++cycle_;
    tick_evt_ = true;  // queues flushed: response outputs may drop
    set_tick_idle(false);
    return;
  }

  // AW accept-latency counter.
  if (q.aw_valid && !s.aw_ready) {
    ++aw_wait_;
  }
  if (aw_fire(q, s)) {
    write_q_.push_back(WriteTxn{q.aw, 0, false});
    aw_wait_ = 0;
  }

  // W beat.
  if (w_fire(q, s)) {
    WriteTxn& t = write_q_.front();
    const Addr a =
        beat_addr(t.aw.addr, t.aw.size, t.aw.len, t.aw.burst, t.beats_got);
    const bool err = in_error_region(a);
    if (!err) store_beat(a, t.aw.size, q.w.data, q.w.strb);
    ++t.beats_got;
    if (q.w.last || t.beats_got == beats(t.aw.len)) {
      t.data_done = true;
      // Bank timing charges the whole burst once at its start address
      // (writes update the row buffer before same-edge AR accepts, a
      // fixed order that keeps trials deterministic).
      b_q_.push_back(PendingB{t.aw.id,
                              in_error_region(t.aw.addr) ? Resp::kSlvErr
                                                         : Resp::kOkay,
                              cycle_ + cfg_.b_latency + bank_access(t.aw.addr)});
      write_q_.pop_front();
      ++writes_done_;
    }
    w_rate_cnt_ = cfg_.w_ready_every > 1 ? cfg_.w_ready_every - 1 : 0;
  } else if (w_rate_cnt_ > 0) {
    --w_rate_cnt_;
  }

  // B handshake.
  if (b_fire(q, s)) {
    b_q_.pop_front();
  }

  // AR accept.
  if (q.ar_valid && !s.ar_ready) {
    ++ar_wait_;
  }
  if (ar_fire(q, s)) {
    read_q_.push_back(ReadTxn{
        q.ar, 0, cycle_ + cfg_.r_first_latency + bank_access(q.ar.addr)});
    ar_wait_ = 0;
  }

  // R beat.
  if (r_fire(q, s)) {
    ReadTxn& t = read_q_.front();
    ++t.next_beat;
    if (t.next_beat == beats(t.ar.len)) {
      read_q_.pop_front();
      ++reads_done_;
    }
    r_rate_cnt_ = cfg_.r_beat_every > 1 ? cfg_.r_beat_every - 1 : 0;
  } else if (r_rate_cnt_ > 0) {
    --r_rate_cnt_;
  }

  ++cycle_;
  // Edge activity: handshakes mutate the queues, pending requests
  // advance accept-latency counters, and non-empty queues ripen against
  // cycle_ (latency expiry) — any of those can move eval() outputs. A
  // fully quiet edge (no valids, everything drained) provably cannot.
  tick_evt_ = aw_fire(q, s) || w_fire(q, s) || b_fire(q, s) ||
              ar_fire(q, s) || r_fire(q, s) || q.aw_valid || q.ar_valid ||
              !write_q_.empty() || !b_q_.empty() || !read_q_.empty() ||
              w_rate_cnt_ != 0 || r_rate_cnt_ != 0;
  // A quiet edge repeats with the same inputs: only cycle_ moves.
  set_tick_idle(!tick_evt_);
}

void MemorySubordinate::reset() {
  write_q_.clear();
  b_q_.clear();
  read_q_.clear();
  aw_wait_ = ar_wait_ = 0;
  w_rate_cnt_ = r_rate_cnt_ = 0;
  cycle_ = 0;
  writes_done_ = reads_done_ = 0;
  close_all_rows();
  row_hits_ = row_misses_ = row_conflicts_ = 0;
  clear_inflight_ = false;
  link_.rsp.force(AxiRsp{});
}

void MemorySubordinate::visit_state(sim::StateVisitor& v) {
  // Paged store in page-number order: byte-stable capture for identical
  // memory contents.
  std::uint64_t n_pages = mem_.size();
  v.count(n_pages);
  if (v.saving()) {
    for (auto& [pno, page] : mem_) {
      Addr no = pno;
      v.u64(no);
      v.raw(page.data(), kPageBytes);
    }
  } else {
    // Page numbers must strictly increase, as capture writes them: one
    // merge walk then reuses the page of every number that stays and
    // erases the pages the image lacks.
    auto it = mem_.begin();  // pages not yet matched, all past `last`
    Addr last = 0;
    for (std::uint64_t i = 0; i < n_pages; ++i) {
      Addr pno = 0;
      v.u64(pno);
      if (i > 0 && pno <= last) {
        v.fail("memory page numbers must increase: page " +
               std::to_string(pno) + " follows page " + std::to_string(last));
      }
      while (it != mem_.end() && it->first < pno) it = mem_.erase(it);
      if (it == mem_.end() || it->first != pno) it = mem_.try_emplace(it, pno);
      v.raw(it->second.data(), kPageBytes);
      ++it;
      last = pno;
    }
    mem_.erase(it, mem_.end());
    r_cache_no_ = 0;
    r_cache_page_ = nullptr;
    w_cache_no_ = 0;
    w_cache_page_ = nullptr;
  }
  visit(v, write_q_);
  visit(v, b_q_);
  visit(v, read_q_);
  visit(v, aw_wait_);
  visit(v, ar_wait_);
  visit(v, w_rate_cnt_);
  visit(v, r_rate_cnt_);
  visit(v, cycle_);
  visit(v, writes_done_);
  visit(v, reads_done_);
  visit(v, bank_row_);
  visit(v, row_hits_);
  visit(v, row_misses_);
  visit(v, row_conflicts_);
  visit(v, clear_inflight_);
  visit(v, tick_evt_);
}

}  // namespace axi
