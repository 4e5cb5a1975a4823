#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "axi/types.hpp"
#include "tmu/counter.hpp"

namespace tmu {

/// Maximum phases of any variant (write Full-Counter has six).
inline constexpr unsigned kMaxPhases = 6;

/// One Linked Data (LD) table entry: a single outstanding transaction
/// (§II-C). `next` links entries of the same tID into the per-ID FIFO
/// whose head/tail pointers live in the HT table.
struct LdEntry {
  bool valid = false;
  std::uint8_t tid = 0;
  axi::Id orig_id = 0;
  axi::Addr addr = 0;
  std::uint8_t len = 0;
  std::uint8_t phase = 0;   ///< WritePhase / ReadPhase value
  unsigned beats = 0;       ///< data beats transferred so far
  bool accepted = false;    ///< address handshake completed
  std::uint64_t enq_cycle = 0;

  PrescaledCounter counter;  ///< watchdog for the active phase (Fc) or
                             ///< the whole transaction (Tc)
  std::array<std::uint32_t, kMaxPhases> phase_cycles{};  ///< measured
  std::array<std::uint32_t, kMaxPhases> phase_budget{};  ///< allotted

  int next = -1;  ///< next LD index in this tID's FIFO, -1 = none

  template <typename V>
  void visit_fields(V& v) {
    visit(v, valid);
    visit(v, tid);
    visit(v, orig_id);
    visit(v, addr);
    visit(v, len);
    visit(v, phase);
    visit(v, beats);
    visit(v, accepted);
    visit(v, enq_cycle);
    visit(v, counter);
    visit(v, phase_cycles);
    visit(v, phase_budget);
    visit(v, next);
  }
};

/// Outstanding Transaction Table (Fig. 3): the HT table keeps a FIFO per
/// tID (in-order completion of same-ID transactions), the LD table holds
/// the transaction details, and the EI table records AW/AR acceptance
/// order so W beats associate with the correct write transaction.
class Ott {
 public:
  Ott(std::uint32_t max_uniq_ids, std::uint32_t txn_per_uniq_id)
      : txn_per_id_(txn_per_uniq_id),
        ld_(max_uniq_ids * txn_per_uniq_id),
        ht_(max_uniq_ids) {
    clear();
  }

  bool full() const { return free_.empty(); }
  bool id_full(std::uint8_t tid) const {
    return ht_[tid].count >= txn_per_id_;
  }
  std::uint32_t occupancy() const {
    return static_cast<std::uint32_t>(ld_.size() - free_.size());
  }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(ld_.size());
  }

  /// Allocates an LD entry, appends it to tid's FIFO and the EI order.
  /// Returns the LD index, or -1 when saturated.
  int enqueue(std::uint8_t tid, axi::Id orig_id, axi::Addr addr,
              std::uint8_t len, std::uint64_t cycle) {
    if (free_.empty() || id_full(tid)) return -1;
    const int idx = free_.front();
    free_.pop_front();
    LdEntry& e = ld_[idx];
    e = LdEntry{};
    e.valid = true;
    e.tid = tid;
    e.orig_id = orig_id;
    e.addr = addr;
    e.len = len;
    e.enq_cycle = cycle;
    HtEntry& h = ht_[tid];
    if (h.head < 0) {
      h.head = h.tail = idx;
    } else {
      ld_[h.tail].next = idx;
      h.tail = idx;
    }
    ++h.count;
    ei_.push_back(idx);
    return idx;
  }

  /// Head (oldest outstanding) of a tID's FIFO; -1 if empty.
  int head_of(std::uint8_t tid) const { return ht_[tid].head; }

  /// Removes the head of tid's FIFO (same-ID in-order completion).
  void dequeue(std::uint8_t tid) {
    if (ht_[tid].head >= 0) remove(ht_[tid].head);
  }

  /// Removes LD entry `idx` wherever it sits in its tID's FIFO (a
  /// withdrawn request is the tail, behind older same-ID entries).
  void remove(int idx) {
    LdEntry& e = ld_[idx];
    HtEntry& h = ht_[e.tid];
    int prev = -1;
    for (int i = h.head; i != idx; i = ld_[i].next) prev = i;
    (prev < 0 ? h.head : ld_[prev].next) = e.next;
    if (h.tail == idx) h.tail = prev;
    --h.count;
    e.valid = false;
    e.next = -1;
    // Remove from EI order (normally the front for writes).
    for (auto it = ei_.begin(); it != ei_.end(); ++it) {
      if (*it == idx) {
        ei_.erase(it);
        break;
      }
    }
    free_.push_front(idx);  // LIFO reuse, like a hardware free stack
  }

  LdEntry& at(int idx) { return ld_[idx]; }
  const LdEntry& at(int idx) const { return ld_[idx]; }

  /// Enqueue-order index list (EI table).
  const std::deque<int>& order() const { return ei_; }

  /// Number of valid transactions enqueued strictly before `idx`
  /// (the "accumulated outstanding traffic" for adaptive budgets).
  std::uint32_t ahead_of(int idx) const {
    std::uint32_t n = 0;
    for (int i : ei_) {
      if (i == idx) break;
      ++n;
    }
    return n;
  }

  void clear() {
    for (auto& e : ld_) e = LdEntry{};
    for (auto& h : ht_) h = HtEntry{};
    ei_.clear();
    free_.clear();
    for (int i = 0; i < static_cast<int>(ld_.size()); ++i) free_.push_back(i);
  }

  /// State serde: every table including the free stack (free-list order
  /// determines future LD index assignment, so it is behavior). Load
  /// rejects tables whose links the OTT operations would follow out of
  /// range or forever (see link_error()).
  template <typename V>
  void visit_fields(V& v) {
    std::uint64_t n = ld_.size();
    v.count(n);
    if (!v.saving() && n != ld_.size()) {
      v.fail("OTT capacity mismatch: snapshot has " + std::to_string(n) +
             " LD entries, table has " + std::to_string(ld_.size()));
    }
    for (auto& e : ld_) visit(v, e);
    for (auto& h : ht_) visit(v, h);
    visit(v, ei_);
    visit(v, free_);
    if (!v.saving()) {
      if (const char* why = link_error()) v.fail(std::string("OTT ") + why);
    }
  }

 private:
  /// Why the tables are not a well-formed OTT, or nullptr. Well formed:
  /// each tID's FIFO runs acyclically from head to tail through `count`
  /// valid entries of that tID, every valid entry sits in exactly one
  /// FIFO, and the EI order (the valid entries) and the free list (the
  /// rest) partition the table.
  const char* link_error() {
    const int n = static_cast<int>(ld_.size());
    constexpr std::uint8_t kLive = 1, kListed = 2;  // marks_ bits
    marks_.assign(ld_.size(), 0);
    for (std::size_t t = 0; t < ht_.size(); ++t) {
      const HtEntry& h = ht_[t];
      int last = -1;
      std::uint32_t len = 0;
      for (int i = h.head; i != -1; i = ld_[i].next) {
        if (i < 0 || i >= n) return "tID FIFO link out of range";
        if (marks_[i] != 0) return "tID FIFO revisits an LD entry";
        if (!ld_[i].valid || ld_[i].tid != t) {
          return "tID FIFO links an entry of another tID or a free one";
        }
        marks_[i] = kLive;
        last = i;
        ++len;
      }
      if (h.tail != last || h.count != len) {
        return "tID FIFO tail or count disagrees with its links";
      }
    }
    for (int i = 0; i < n; ++i) {
      if (ld_[i].valid != (marks_[i] != 0)) {
        return "valid LD entry outside every tID FIFO";
      }
    }
    if (ei_.size() + free_.size() != ld_.size()) {
      return "EI order and free list do not partition the LD table";
    }
    for (const std::deque<int>* list : {&ei_, &free_}) {
      const std::uint8_t want = list == &ei_ ? kLive : 0;
      for (const int i : *list) {
        if (i < 0 || i >= n) return "EI or free-list index out of range";
        if (marks_[i] != want) {
          return "EI order and free list do not partition the LD table";
        }
        marks_[i] |= kListed;
      }
    }
    return nullptr;
  }

  struct HtEntry {
    int head = -1;
    int tail = -1;
    std::uint32_t count = 0;
    template <typename V>
    void visit_fields(V& v) {
      visit(v, head);
      visit(v, tail);
      visit(v, count);
    }
  };

  std::uint32_t txn_per_id_;
  std::vector<LdEntry> ld_;
  std::vector<HtEntry> ht_;
  std::deque<int> ei_;
  std::deque<int> free_;
  std::vector<std::uint8_t> marks_;  ///< link_error() scratch, per LD entry
};

}  // namespace tmu
