#include "axi/crossbar.hpp"

#include <array>
#include <cassert>

#include "sim/state.hpp"

namespace axi {

// ---------------------------------------------------------------------
// Shards
// ---------------------------------------------------------------------

/// Response-path shard for one manager: decodes and demuxes that
/// manager's AW/AR/W onto the internal per-(m,s) request wires (with
/// same-ID gating and ID remapping), muxes B/R back from the internal
/// response wires plus the manager's DECERR queues, and terminates
/// decode errors locally. Reads only its manager's link and its own row
/// of internal wires, so it sleeps whenever its manager is idle.
class Crossbar::MgrShard final : public sim::Module {
 public:
  MgrShard(std::string name, Crossbar& owner, std::size_t m)
      : sim::Module(std::move(name)), x_(owner), m_(m) {}

  void eval() override;
  /// The edge report: the facade's tick() sets it for this shard, so
  /// the shard itself needs no tick() and the kernel reads the report
  /// right after the facade's.
  void report(bool evt) { tick_evt_ = evt; }
  bool is_sequential() const override { return false; }
  void reset() override { prev_.fill(kNone); }
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(x_.mgrs_[m_]->req);
    for (std::size_t s = 0; s < x_.subs_.size(); ++s) {
      in.input(x_.xrsp(m_, s));
    }
  }
  void visit_state(sim::StateVisitor& v) override {
    // The stale-wire slots are eval-relevant (they bound the sparse
    // rewrite); the decoder hints are pure lookup caches and stay out.
    for (auto& p : prev_) visit(v, p);
  }

 private:
  Crossbar& x_;
  std::size_t m_;
  std::uint32_t aw_hint_ = 0;  ///< decoder last-hit caches
  std::uint32_t ar_hint_ = 0;
  /// Subordinates whose xreq wire may be non-default after the last
  /// eval (one slot per channel role). Only these and the currently
  /// active ones are rewritten — every other wire in the row provably
  /// still holds AxiReq{}, so the O(M) full-row rewrite (M equality
  /// compares per eval) collapses to O(active).
  std::array<std::size_t, 5> prev_{kNone, kNone, kNone, kNone, kNone};
};

/// Request-path shard for one subordinate: round-robin AW/AR
/// arbitration over the internal per-(m,s) request wires, W routing by
/// the subordinate's grant FIFO, and B/R demux of the subordinate's
/// responses onto the internal response wires. Reads only its
/// subordinate's link and its own column of internal wires, so an idle
/// subordinate port costs zero evals.
class Crossbar::SubShard final : public sim::Module {
 public:
  SubShard(std::string name, Crossbar& owner, std::size_t s)
      : sim::Module(std::move(name)), x_(owner), s_(s) {}

  void eval() override;
  /// See MgrShard::report().
  void report(bool evt) { tick_evt_ = evt; }
  bool is_sequential() const override { return false; }
  void reset() override { prev_.fill(kNone); }
  void visit_inputs(sim::InputVisitor& in) override {
    in.input(x_.subs_[s_]->rsp);
    for (std::size_t m = 0; m < x_.mgrs_.size(); ++m) {
      in.input(x_.xreq(m, s_));
    }
  }
  void visit_state(sim::StateVisitor& v) override {
    for (auto& p : prev_) visit(v, p);
  }

 private:
  Crossbar& x_;
  std::size_t s_;
  /// Managers whose xrsp wire may be non-default after the last eval;
  /// see MgrShard::prev_.
  std::array<std::size_t, 5> prev_{kNone, kNone, kNone, kNone, kNone};
};

void Crossbar::MgrShard::eval() {
  XbarState& st = x_.st_;
  const std::size_t n_s = st.n_s;
  const AxiReq& mq = x_.mgrs_[m_]->req.read();

  AxiRsp rsp{};

  // --- request demux: where do this manager's AW / AR / W go? ---
  std::size_t aw_s = kNone;
  if (mq.aw_valid) {
    const std::size_t t = st.decoder.lookup(mq.aw.addr, aw_hint_);
    if (st.aw_id_route[m_].allows(mq.aw.id, t)) {
      if (t == kDecErr) {
        rsp.aw_ready = true;  // DECERR default subordinate: always ready
      } else {
        aw_s = t;
      }
    }
  }
  std::size_t ar_s = kNone;
  if (mq.ar_valid) {
    const std::size_t t = st.decoder.lookup(mq.ar.addr, ar_hint_);
    if (st.ar_id_route[m_].allows(mq.ar.id, t)) {
      if (t == kDecErr) {
        rsp.ar_ready = true;
      } else {
        ar_s = t;
      }
    }
  }
  std::size_t w_s = kNone;
  if (!st.mgr_w_route[m_].empty()) {
    const std::size_t s = st.mgr_w_route[m_].front();
    if (s == kDecErr) {
      rsp.w_ready = mq.w_valid;  // swallow DECERR write data at full rate
    } else {
      w_s = s;
    }
  }

  // --- single pass over the occupied wires of this manager's xrsp row:
  // grant readies from the targeted subs, and the B/R sources closest to
  // the round-robin pointers (subs offering a response for this manager
  // plus the DECERR queue as virtual source n_s) — one read per wire. A
  // wire outside the mask holds AxiRsp{} and would change nothing. ---
  std::size_t b_src = kNone;
  std::size_t r_src = kNone;
  std::size_t b_dist = n_s + 1;  // rr distance of the best source so far
  std::size_t r_dist = n_s + 1;
  x_.xrsp_occ_.for_each(m_, [&](std::size_t src) {
    const AxiRsp& xr = x_.xrsp(m_, src).read();
    if (src == aw_s) rsp.aw_ready = xr.aw_ready;
    if (src == ar_s) rsp.ar_ready = xr.ar_ready;
    if (src == w_s) rsp.w_ready = xr.w_ready;
    if (xr.b_valid) {
      const std::size_t d = rr_dist(src, st.b_rr[m_], n_s + 1);
      if (d < b_dist) {
        b_dist = d;
        b_src = src;
        rsp.b = xr.b;
      }
    }
    if (xr.r_valid) {
      const std::size_t d = rr_dist(src, st.r_rr[m_], n_s + 1);
      if (d < r_dist) {
        r_dist = d;
        r_src = src;
        rsp.r = xr.r;
      }
    }
  });
  if (const DecErrWrite* t = st.first_done_write(m_)) {
    const std::size_t d = rr_dist(n_s, st.b_rr[m_], n_s + 1);
    if (d < b_dist) {
      b_dist = d;
      b_src = kNone;  // DECERR source: no sub wire to signal ready on
      rsp.b = BFlit{t->id, Resp::kDecErr};
    }
  }
  rsp.b_valid = b_dist <= n_s;
  if (!st.dec_r[m_].empty()) {
    const std::size_t d = rr_dist(n_s, st.r_rr[m_], n_s + 1);
    if (d < r_dist) {
      r_dist = d;
      r_src = kNone;
      const DecErrRead& t = st.dec_r[m_].front();
      rsp.r = RFlit{t.id, 0, Resp::kDecErr, t.beats_left == 1};
    }
  }
  rsp.r_valid = r_dist <= n_s;

  // --- drive this manager's row of internal request wires: only the
  // wires active now or last eval can differ from AxiReq{} ---
  const std::array<std::size_t, 5> cur{aw_s, ar_s, w_s, b_src, r_src};
  for (const std::size_t s : cur) {
    if (s >= n_s) continue;  // kNone / DECERR roles handled locally
    AxiReq q{};
    if (s == aw_s) {
      q.aw_valid = true;
      q.aw = mq.aw;
      q.aw.id = (mq.aw.id & st.id_mask) |
                (static_cast<Id>(m_) << st.id_shift);
    }
    if (s == ar_s) {
      q.ar_valid = true;
      q.ar = mq.ar;
      q.ar.id = (mq.ar.id & st.id_mask) |
                (static_cast<Id>(m_) << st.id_shift);
    }
    if (s == w_s) {
      q.w_valid = mq.w_valid;
      q.w = mq.w;
    }
    if (s == b_src) q.b_ready = mq.b_ready;
    if (s == r_src) q.r_ready = mq.r_ready;
    x_.xreq(m_, s).write(q);
    x_.xreq_occ_.set(s, m_);
  }
  reset_stale(prev_, cur, n_s, [&](std::size_t s) {
    x_.xreq(m_, s).write(AxiReq{});
    x_.xreq_occ_.clear(s, m_);
  });
  prev_ = cur;

  x_.mgrs_[m_]->rsp.write(rsp);
  x_.live_mgrs_.assign(0, m_,
                       mq.aw_valid || mq.w_valid || mq.ar_valid ||
                           rsp.b_valid || rsp.r_valid);
}

void Crossbar::SubShard::eval() {
  XbarState& st = x_.st_;
  const std::size_t n_m = st.n_m;
  const AxiRsp& sr = x_.subs_[s_]->rsp.read();

  AxiReq q{};

  // Non-wire routing decisions first: who owns the W channel (oldest
  // granted manager), and which managers the pending B/R route back to
  // (by the ID's manager bits; out-of-range IDs — injected faults —
  // route nowhere).
  const std::size_t w_m =
      st.w_route[s_].empty() ? kNone : st.w_route[s_].front();
  std::size_t b_m = kNone;
  if (sr.b_valid && (sr.b.id >> st.id_shift) < n_m) {
    b_m = sr.b.id >> st.id_shift;
  }
  std::size_t r_m = kNone;
  if (sr.r_valid && (sr.r.id >> st.id_shift) < n_m) {
    r_m = sr.r.id >> st.id_shift;
  }

  // --- single pass over the occupied wires of this subordinate's xreq
  // column: round-robin AW/AR arbitration (closest requester to the rr
  // pointer wins, so the winner is the linear scan's), W forwarding and
  // B/R ready collection — one read per wire. A wire outside the mask
  // holds AxiReq{} and would change nothing. ---
  std::size_t aw_m = kNone;
  std::size_t ar_m = kNone;
  std::size_t aw_dist = n_m;
  std::size_t ar_dist = n_m;
  x_.xreq_occ_.for_each(s_, [&](std::size_t m) {
    const AxiReq& xq = x_.xreq(m, s_).read();
    if (xq.aw_valid) {
      const std::size_t d = rr_dist(m, st.aw_rr[s_], n_m);
      if (d < aw_dist) {
        aw_dist = d;
        aw_m = m;
        q.aw = xq.aw;  // already ID-remapped by the manager shard
      }
    }
    if (xq.ar_valid) {
      const std::size_t d = rr_dist(m, st.ar_rr[s_], n_m);
      if (d < ar_dist) {
        ar_dist = d;
        ar_m = m;
        q.ar = xq.ar;
      }
    }
    if (m == w_m) {
      q.w_valid = xq.w_valid;
      q.w = xq.w;
    }
    if (m == b_m) q.b_ready = xq.b_ready;
    if (m == r_m) q.r_ready = xq.r_ready;
  });
  q.aw_valid = aw_m != kNone;
  q.ar_valid = ar_m != kNone;

  x_.subs_[s_]->req.write(q);

  // --- drive this subordinate's column of internal response wires:
  // only the wires active now or last eval can differ from AxiRsp{} ---
  const std::array<std::size_t, 5> cur{aw_m, ar_m, w_m, b_m, r_m};
  for (const std::size_t m : cur) {
    if (m >= n_m) continue;
    AxiRsp xr{};
    if (m == aw_m) xr.aw_ready = sr.aw_ready;
    if (m == ar_m) xr.ar_ready = sr.ar_ready;
    if (m == w_m) xr.w_ready = sr.w_ready;
    if (m == b_m) {
      xr.b_valid = true;
      xr.b = BFlit{sr.b.id & st.id_mask, sr.b.resp};
    }
    if (m == r_m) {
      xr.r_valid = true;
      xr.r = RFlit{sr.r.id & st.id_mask, sr.r.data, sr.r.resp, sr.r.last};
    }
    x_.xrsp(m, s_).write(xr);
    x_.xrsp_occ_.set(m, s_);
  }
  reset_stale(prev_, cur, n_m, [&](std::size_t m) {
    x_.xrsp(m, s_).write(AxiRsp{});
    x_.xrsp_occ_.clear(m, s_);
  });
  prev_ = cur;
}

// ---------------------------------------------------------------------
// Facade
// ---------------------------------------------------------------------

Crossbar::Crossbar(std::string name, std::vector<Link*> managers,
                   std::vector<Link*> subordinates,
                   std::vector<AddrRange> map, unsigned id_shift)
    : sim::Module(std::move(name)),
      mgrs_(std::move(managers)),
      subs_(std::move(subordinates)),
      st_(mgrs_.size(), subs_.size(), std::move(map), id_shift),
      xreq_(mgrs_.size() * subs_.size()),
      xrsp_(mgrs_.size() * subs_.size()),
      tick_aw_hint_(mgrs_.size(), 0),
      tick_ar_hint_(mgrs_.size(), 0),
      xreq_occ_(subs_.size(), mgrs_.size()),
      xrsp_occ_(mgrs_.size(), subs_.size()),
      live_mgrs_(1, mgrs_.size()),
      evt_mgrs_(1, mgrs_.size()),
      evt_subs_(1, subs_.size()),
      dec_mgrs_(1, mgrs_.size()) {
  reset_masks();
  mgr_shards_.reserve(mgrs_.size());
  for (std::size_t m = 0; m < mgrs_.size(); ++m) {
    mgr_shards_.push_back(std::make_unique<MgrShard>(
        this->name() + ".mgr" + std::to_string(m), *this, m));
  }
  sub_shards_.reserve(subs_.size());
  for (std::size_t s = 0; s < subs_.size(); ++s) {
    sub_shards_.push_back(std::make_unique<SubShard>(
        this->name() + ".sub" + std::to_string(s), *this, s));
  }
}

Crossbar::~Crossbar() = default;

void Crossbar::visit_submodules(
    const std::function<void(sim::Module&)>& visit) {
  for (auto& sh : mgr_shards_) visit(*sh);
  for (auto& sh : sub_shards_) visit(*sh);
}

void Crossbar::visit_inputs(sim::InputVisitor& in) {
  for (Link* l : mgrs_) {
    in.tick_input(l->req);
    in.tick_input(l->rsp);
  }
  for (Link* l : subs_) {
    in.tick_input(l->req);
    in.tick_input(l->rsp);
  }
}

/// Commits the cycle's handshakes into the shared XbarState and sets
/// the shards' edge reports: a shard's is raised only when the edge
/// mutated state its eval reads (grant FIFOs, round-robin pointers, ID
/// routes, DECERR queues); pure wire traffic is traced by the
/// scheduler. The work is O(active ports): only live manager ports are
/// read, a B/R source is sought among the manager's occupied response
/// wires, and only the reports of this edge and the previous one are
/// touched.
void Crossbar::tick() {
  const std::size_t n_m = mgrs_.size();
  const std::size_t n_s = subs_.size();

  // Lower the reports the previous edge raised; every other shard's
  // report is already clear.
  evt_mgrs_.for_each(0, [&](std::size_t m) { mgr_shards_[m]->report(false); });
  evt_subs_.for_each(0, [&](std::size_t s) { sub_shards_[s]->report(false); });
  evt_mgrs_.fill(false);
  evt_subs_.fill(false);

  // Whether the facade stays awake: quiet ports all around and empty
  // DECERR queues mean the edge committed nothing and the next one
  // cannot either, so the facade may sleep.
  bool evt = dec_mgrs_.any();

  // A port outside live_mgrs_ carries no valid in either direction, so
  // no handshake can fire there and it adds nothing to `evt`.
  live_mgrs_.for_each(0, [&](std::size_t m) {
    const AxiReq& mq = mgrs_[m]->req.read();
    const AxiRsp& mr = mgrs_[m]->rsp.read();
    evt = evt || mq.aw_valid || mq.w_valid || mq.ar_valid || mr.b_valid ||
          mr.r_valid;

    if (aw_fire(mq, mr)) {
      evt_mgrs_.set(0, m);
      const std::size_t s = st_.decoder.lookup(mq.aw.addr, tick_aw_hint_[m]);
      st_.aw_id_route[m].open(mq.aw.id, s);
      if (s == kDecErr) {
        st_.dec_w[m].push_back(DecErrWrite{mq.aw.id, false});
        st_.mgr_w_route[m].push_back(kDecErr);
        ++st_.decode_errors;
      } else {
        st_.w_route[s].push_back(m);
        st_.mgr_w_route[m].push_back(s);
        st_.aw_rr[s] = (m + 1) % n_m;
        evt_subs_.set(0, s);
      }
    }
    if (ar_fire(mq, mr)) {
      evt_mgrs_.set(0, m);
      const std::size_t s = st_.decoder.lookup(mq.ar.addr, tick_ar_hint_[m]);
      st_.ar_id_route[m].open(mq.ar.id, s);
      if (s == kDecErr) {
        st_.dec_r[m].push_back(DecErrRead{mq.ar.id, beats(mq.ar.len)});
        ++st_.decode_errors;
      } else {
        st_.ar_rr[s] = (m + 1) % n_m;
        evt_subs_.set(0, s);
      }
    }
    // W beat consumed.
    if (w_fire(mq, mr)) {
      assert(!st_.mgr_w_route[m].empty());
      evt_mgrs_.set(0, m);
      const std::size_t s = st_.mgr_w_route[m].front();
      if (s == kDecErr) {
        if (mq.w.last) {
          for (DecErrWrite& t : st_.dec_w[m]) {
            if (!t.data_done) {
              t.data_done = true;
              break;
            }
          }
          st_.mgr_w_route[m].pop_front();
        }
      } else if (mq.w.last) {
        st_.mgr_w_route[m].pop_front();
        st_.w_route[s].pop_front();
        evt_subs_.set(0, s);
      }
    }
    // B delivered: from the first subordinate handshaking a B of this
    // manager, else from the DECERR queue (retire that entry).
    if (b_fire(mq, mr)) {
      evt_mgrs_.set(0, m);
      st_.aw_id_route[m].close(mr.b.id);
      const std::size_t src = xrsp_occ_.find(m, [&](std::size_t s) {
        const AxiRsp& sr = subs_[s]->rsp.read();
        return sr.b_valid && subs_[s]->req.read().b_ready &&
               (sr.b.id >> st_.id_shift) == m;
      });
      if (src < n_s) {
        st_.b_rr[m] = (src + 1) % (n_s + 1);
      } else {
        for (auto it = st_.dec_w[m].begin(); it != st_.dec_w[m].end();
             ++it) {
          if (it->data_done) {
            st_.dec_w[m].erase(it);
            break;
          }
        }
        st_.b_rr[m] = 0;
      }
    }
    // R beat delivered.
    if (r_fire(mq, mr)) {
      evt_mgrs_.set(0, m);
      if (mr.r.last) st_.ar_id_route[m].close(mr.r.id);
      const std::size_t src = xrsp_occ_.find(m, [&](std::size_t s) {
        const AxiRsp& sr = subs_[s]->rsp.read();
        return sr.r_valid && subs_[s]->req.read().r_ready &&
               (sr.r.id >> st_.id_shift) == m;
      });
      if (src < n_s) {
        st_.r_rr[m] = (src + 1) % (n_s + 1);
      } else {
        if (!st_.dec_r[m].empty()) {
          if (--st_.dec_r[m].front().beats_left == 0) {
            st_.dec_r[m].pop_front();
          }
        }
        st_.r_rr[m] = 0;
      }
    }
    // Only a port that fired above can have changed its DECERR queues.
    dec_mgrs_.assign(0, m, !st_.dec_w[m].empty() || !st_.dec_r[m].empty());
  });
  evt_mgrs_.for_each(0, [&](std::size_t m) { mgr_shards_[m]->report(true); });
  evt_subs_.for_each(0, [&](std::size_t s) { sub_shards_[s]->report(true); });
  // Quiet manager ports and drained DECERR queues: no handshake can
  // fire, and every shard's report is already clear. The kernel reads
  // the shards' reports only at edges this facade ticks at, so they stay
  // clear while it sleeps.
  set_tick_idle(!evt);
}

void Crossbar::reset_masks() {
  xreq_occ_.fill(false);
  xrsp_occ_.fill(false);
  live_mgrs_.fill(true);
  evt_mgrs_.fill(true);
  evt_subs_.fill(true);
  dec_mgrs_.fill(false);
}

void Crossbar::rebuild_masks() {
  reset_masks();
  for (std::size_t m = 0; m < mgrs_.size(); ++m) {
    if (!st_.dec_w[m].empty() || !st_.dec_r[m].empty()) dec_mgrs_.set(0, m);
    for (std::size_t s = 0; s < subs_.size(); ++s) {
      if (!(xreq(m, s).read() == AxiReq{})) xreq_occ_.set(s, m);
      if (!(xrsp(m, s).read() == AxiRsp{})) xrsp_occ_.set(m, s);
    }
  }
}

void Crossbar::reset() {
  st_.clear();
  for (Link* s : subs_) s->req.force(AxiReq{});
  for (Link* m : mgrs_) m->rsp.force(AxiRsp{});
  // A clear occupancy bit already means a default internal wire, so
  // only the occupied ones are forced back: O(occupied), not n_m x n_s.
  for (std::size_t s = 0; s < subs_.size(); ++s) {
    xreq_occ_.for_each(s, [&](std::size_t m) { xreq(m, s).force(AxiReq{}); });
  }
  for (std::size_t m = 0; m < mgrs_.size(); ++m) {
    xrsp_occ_.for_each(m, [&](std::size_t s) { xrsp(m, s).force(AxiRsp{}); });
  }
  reset_masks();
}

void Crossbar::visit_state(sim::StateVisitor& v) {
  visit(v, st_);
  // Internal shard-coupling wires are owned here, not by a Soc link, so
  // they travel with the facade (in-place: wires are non-copyable and
  // the row/column shape is construction-fixed).
  for (auto& w : xreq_) visit(v, w);
  for (auto& w : xrsp_) visit(v, w);
  // The masks are derived; a restore re-derives them from what it loaded.
  if (!v.saving()) rebuild_masks();
}

}  // namespace axi
