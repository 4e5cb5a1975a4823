#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/types.hpp"

namespace axi {

/// One entry of the crossbar address map.
struct AddrRange {
  Addr base = 0;
  Addr size = 0;
  std::size_t sub_index = 0;
  bool contains(Addr a) const { return a >= base && a < base + size; }
};

/// Validated address decoder for the crossbar. The map is checked once
/// at construction — zero-size ranges, overlapping ranges and
/// out-of-range subordinate targets are rejected with
/// std::invalid_argument instead of silently routing by first match —
/// then sorted by base so lookups are a binary search instead of the
/// seed's linear scan per manager per subordinate per eval. Callers own
/// a last-hit hint: AXI traffic is bursty, so consecutive decodes from
/// one manager almost always land in the same range and skip the
/// search entirely.
class AddrDecoder {
 public:
  static constexpr std::size_t kNoMatch =
      std::numeric_limits<std::size_t>::max();

  AddrDecoder(std::vector<AddrRange> map, std::size_t n_subs)
      : ranges_(std::move(map)) {
    for (const AddrRange& r : ranges_) {
      if (r.size == 0) {
        throw std::invalid_argument(
            "Crossbar address map: zero-size AddrRange at base 0x" +
            hex(r.base));
      }
      if (r.base + r.size < r.base) {
        throw std::invalid_argument(
            "Crossbar address map: AddrRange at base 0x" + hex(r.base) +
            " wraps the address space");
      }
      if (r.sub_index >= n_subs) {
        throw std::invalid_argument(
            "Crossbar address map: AddrRange at base 0x" + hex(r.base) +
            " targets subordinate " + std::to_string(r.sub_index) +
            " but only " + std::to_string(n_subs) + " exist");
      }
    }
    std::sort(ranges_.begin(), ranges_.end(),
              [](const AddrRange& a, const AddrRange& b) {
                return a.base < b.base;
              });
    for (std::size_t i = 1; i < ranges_.size(); ++i) {
      const AddrRange& lo = ranges_[i - 1];
      const AddrRange& hi = ranges_[i];
      if (lo.base + lo.size > hi.base) {
        throw std::invalid_argument(
            "Crossbar address map: AddrRange at base 0x" + hex(lo.base) +
            " overlaps AddrRange at base 0x" + hex(hi.base));
      }
    }
  }

  /// Subordinate index for `a`, or kNoMatch (DECERR). `hint` is a
  /// caller-owned last-hit cache slot, updated on every successful
  /// search; pass a distinct slot per lookup stream (per manager).
  std::size_t lookup(Addr a, std::uint32_t& hint) const {
    if (hint < ranges_.size() && ranges_[hint].contains(a)) {
      return ranges_[hint].sub_index;
    }
    // Last range with base <= a, if any, is the only candidate.
    std::size_t lo = 0, hi = ranges_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (ranges_[mid].base <= a) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == 0 || !ranges_[lo - 1].contains(a)) return kNoMatch;
    hint = static_cast<std::uint32_t>(lo - 1);
    return ranges_[lo - 1].sub_index;
  }

  const std::vector<AddrRange>& ranges() const { return ranges_; }

 private:
  static std::string hex(Addr a) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s;
    do {
      s.insert(s.begin(), kDigits[a & 0xF]);
      a >>= 4;
    } while (a != 0);
    return s;
  }

  std::vector<AddrRange> ranges_;  ///< sorted by base, non-overlapping
};

/// AXI same-ID ordering bookkeeping for one manager: which subordinate
/// currently holds outstanding transactions of each original ID, and how
/// many. A flat grow-only vector keyed on Id — managers use a handful of
/// IDs, so the linear probe beats the seed's std::map (node allocation
/// per new ID, pointer chasing per eval) on every axis that matters.
class IdRouteTable {
 public:
  /// True when ID `id` may be routed to `sub` without reordering risk:
  /// no outstanding transactions under that ID, or all of them already
  /// target the same subordinate.
  bool allows(Id id, std::size_t sub) const {
    const Entry* e = find(id);
    return e == nullptr || e->count == 0 || e->sub == sub;
  }

  /// Records an accepted transaction of `id` towards `sub`.
  void open(Id id, std::size_t sub) {
    Entry& e = grow(id);
    e.sub = sub;
    ++e.count;
  }

  /// Records a completed transaction of `id` (B delivered / last R).
  void close(Id id) {
    if (Entry* e = find(id); e != nullptr && e->count > 0) --e->count;
  }

  void clear() { entries_.clear(); }

  template <typename V>
  void visit_fields(V& v) {
    visit(v, entries_);
  }

 private:
  struct Entry {
    Id id = 0;
    std::size_t sub = 0;
    unsigned count = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, id);
      visit(v, sub);
      visit(v, count);
    }
  };

  const Entry* find(Id id) const {
    for (const Entry& e : entries_) {
      if (e.id == id) return &e;
    }
    return nullptr;
  }
  Entry* find(Id id) {
    for (Entry& e : entries_) {
      if (e.id == id) return &e;
    }
    return nullptr;
  }
  Entry& grow(Id id) {
    if (Entry* e = find(id)) return *e;
    entries_.push_back(Entry{id, 0, 0});
    return entries_.back();
  }

  std::vector<Entry> entries_;  ///< grow-only within a run; tiny
};

/// Outstanding write towards the internal DECERR subordinate.
struct DecErrWrite {
  Id id = 0;
  bool data_done = false;  ///< wlast seen
  template <typename V>
  void visit_fields(V& v) {
    visit(v, id);
    visit(v, data_done);
  }
};

/// Outstanding read towards the internal DECERR subordinate.
struct DecErrRead {
  Id id = 0;
  unsigned beats_left = 0;  ///< R beats still to send
  template <typename V>
  void visit_fields(V& v) {
    visit(v, id);
    visit(v, beats_left);
    check_beats_left(v, beats_left, "crossbar DECERR read");
  }
};

/// All registered (clocked) crossbar state: read by the per-port shards'
/// evals, indexed by port, and mutated only by the facade's
/// tick()/reset(), once per edge.
struct XbarState {
  static constexpr std::size_t kDecErr = AddrDecoder::kNoMatch;

  XbarState(std::size_t n_mgrs, std::size_t n_subs,
            std::vector<AddrRange> map, unsigned shift)
      : n_m(n_mgrs),
        n_s(n_subs),
        id_shift(shift),
        id_mask((Id{1} << shift) - 1),
        decoder(std::move(map), n_subs),
        w_route(n_subs),
        mgr_w_route(n_mgrs),
        aw_rr(n_subs, 0),
        ar_rr(n_subs, 0),
        b_rr(n_mgrs, 0),
        r_rr(n_mgrs, 0),
        aw_id_route(n_mgrs),
        ar_id_route(n_mgrs),
        dec_w(n_mgrs),
        dec_r(n_mgrs) {}

  std::size_t n_m, n_s;
  unsigned id_shift;
  Id id_mask;
  AddrDecoder decoder;

  // Registered grant state.
  std::vector<std::deque<std::size_t>> w_route;      ///< per sub: mgr queue
  std::vector<std::deque<std::size_t>> mgr_w_route;  ///< per mgr: sub queue
  std::vector<std::size_t> aw_rr;  ///< per sub round-robin pointer
  std::vector<std::size_t> ar_rr;
  std::vector<std::size_t> b_rr;  ///< per mgr: round-robin over subs for B
  std::vector<std::size_t> r_rr;
  std::vector<IdRouteTable> aw_id_route;  ///< per manager
  std::vector<IdRouteTable> ar_id_route;

  // Default (DECERR) subordinate state, indexed by manager so the
  // response muxes read their own queue front instead of scanning a
  // global deque (the seed's dec_q_ linear scans).
  std::vector<std::deque<DecErrWrite>> dec_w;  ///< per mgr, AW order
  std::vector<std::deque<DecErrRead>> dec_r;   ///< per mgr, AR order
  std::size_t decode_errors = 0;

  /// Oldest DECERR write of manager m whose data has fully arrived
  /// (the next B the internal DECERR subordinate will offer), if any.
  /// W beats follow AW order per manager, so entries finish in queue
  /// order — but scan defensively rather than assume the front.
  const DecErrWrite* first_done_write(std::size_t m) const {
    for (const DecErrWrite& t : dec_w[m]) {
      if (t.data_done) return &t;
    }
    return nullptr;
  }

  /// State serde: registered state only — the shape fields (n_m, n_s,
  /// id bits) and the decoder are construction-time and never change.
  /// Load rejects state the shards would index out of range (see
  /// load_error()).
  template <typename V>
  void visit_fields(V& v) {
    visit(v, w_route);
    visit(v, mgr_w_route);
    visit(v, aw_rr);
    visit(v, ar_rr);
    visit(v, b_rr);
    visit(v, r_rr);
    visit(v, aw_id_route);
    visit(v, ar_id_route);
    visit(v, dec_w);
    visit(v, dec_r);
    visit(v, decode_errors);
    if (!v.saving()) {
      if (const std::string why = load_error(); !why.empty()) {
        v.fail("crossbar " + why);
      }
    }
  }

  /// Why loaded state does not fit this crossbar, or empty. It fits when
  /// every per-port vector has its construction size, every W route
  /// names a manager (w_route) or a subordinate or kDecErr
  /// (mgr_w_route), and every round-robin pointer is in range: aw/ar
  /// over the managers, b/r over the subordinates plus DECERR.
  std::string load_error() const {
    const struct {
      const char* name;
      std::size_t size, ports;
    } shape[] = {
        {"w_route", w_route.size(), n_s},
        {"mgr_w_route", mgr_w_route.size(), n_m},
        {"aw_rr", aw_rr.size(), n_s},
        {"ar_rr", ar_rr.size(), n_s},
        {"b_rr", b_rr.size(), n_m},
        {"r_rr", r_rr.size(), n_m},
        {"aw_id_route", aw_id_route.size(), n_m},
        {"ar_id_route", ar_id_route.size(), n_m},
        {"dec_w", dec_w.size(), n_m},
        {"dec_r", dec_r.size(), n_m},
    };
    for (const auto& f : shape) {
      if (f.size != f.ports) {
        return std::string(f.name) + " has " + std::to_string(f.size) +
               " entries for " + std::to_string(f.ports) + " ports";
      }
    }
    const auto out_of_range = [](const char* name, std::size_t x) {
      return std::string(name) + " entry " + std::to_string(x) +
             " out of range";
    };
    for (const auto& q : w_route) {
      for (const std::size_t m : q) {
        if (m >= n_m) return out_of_range("w_route", m);
      }
    }
    for (const auto& q : mgr_w_route) {
      for (const std::size_t s : q) {
        if (s >= n_s && s != kDecErr) return out_of_range("mgr_w_route", s);
      }
    }
    for (const auto* rr : {&aw_rr, &ar_rr}) {
      for (const std::size_t p : *rr) {
        if (p >= n_m) return out_of_range("aw/ar round-robin pointer", p);
      }
    }
    for (const auto* rr : {&b_rr, &r_rr}) {
      for (const std::size_t p : *rr) {
        if (p > n_s) return out_of_range("b/r round-robin pointer", p);
      }
    }
    return {};
  }

  void clear() {
    for (auto& q : w_route) q.clear();
    for (auto& q : mgr_w_route) q.clear();
    std::fill(aw_rr.begin(), aw_rr.end(), 0);
    std::fill(ar_rr.begin(), ar_rr.end(), 0);
    std::fill(b_rr.begin(), b_rr.end(), 0);
    std::fill(r_rr.begin(), r_rr.end(), 0);
    for (auto& t : aw_id_route) t.clear();
    for (auto& t : ar_id_route) t.clear();
    for (auto& q : dec_w) q.clear();
    for (auto& q : dec_r) q.clear();
    decode_errors = 0;
  }
};

}  // namespace axi
