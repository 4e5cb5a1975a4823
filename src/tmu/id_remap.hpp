#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/types.hpp"

namespace tmu {

/// AXI ID Remapper (§II-A): compacts the wide, sparse AXI4 ID space into
/// tIDs in [0, max_uniq_ids). A slot is allocated on the first
/// transaction of an ID and freed when its outstanding count drops to
/// zero. When all slots are taken by *other* IDs, new IDs must stall
/// (the TMU gates the AW/AR ready path).
class IdRemapper {
 public:
  /// Throws std::invalid_argument above 256 slots: tIDs are 8 bits.
  explicit IdRemapper(std::uint32_t max_uniq_ids) {
    if (max_uniq_ids > 256) {
      throw std::invalid_argument("TMU max_uniq_ids " +
                                  std::to_string(max_uniq_ids) +
                                  " exceeds 256 (tIDs are 8 bits)");
    }
    slots_.resize(max_uniq_ids);
  }

  /// tID for an already-mapped ID, if any. A scan over the slots (at
  /// most max_uniq_ids, 4 by default): a busy slot's ID is unique.
  std::optional<std::uint8_t> lookup(axi::Id id) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding > 0 && slots_[i].id == id) {
        return static_cast<std::uint8_t>(i);
      }
    }
    return std::nullopt;
  }

  /// True if a transaction with this ID could be admitted now
  /// (already mapped, or a free slot exists).
  bool can_admit(axi::Id id) const {
    return lookup(id).has_value() || free_slot().has_value();
  }

  /// Admits one transaction of `id`; allocates a slot if needed.
  /// Returns the tID, or nullopt if saturated (caller must stall).
  std::optional<std::uint8_t> admit(axi::Id id) {
    if (auto t = lookup(id)) {
      ++slots_[*t].outstanding;
      return t;
    }
    if (auto f = free_slot()) {
      slots_[*f].id = id;
      slots_[*f].outstanding = 1;
      return f;
    }
    return std::nullopt;
  }

  /// Releases one transaction of tID; frees the slot at zero.
  void release(std::uint8_t tid) {
    Slot& s = slots_[tid];
    if (s.outstanding > 0) --s.outstanding;
  }

  /// The original AXI ID currently mapped to tid (valid while busy).
  axi::Id original_id(std::uint8_t tid) const { return slots_[tid].id; }

  std::uint32_t active_ids() const {
    std::uint32_t n = 0;
    for (const Slot& s : slots_) n += s.outstanding > 0 ? 1 : 0;
    return n;
  }
  std::uint32_t outstanding(std::uint8_t tid) const {
    return slots_[tid].outstanding;
  }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  void clear() {
    for (Slot& s : slots_) s = {};
  }

  /// State serde: the slots. A load rejects two busy slots holding one
  /// ID, which lookup() could never tell apart.
  template <typename V>
  void visit_fields(V& v) {
    std::uint64_t n = slots_.size();
    v.count(n);
    if (!v.saving() && n != slots_.size()) {
      v.fail("ID remapper capacity mismatch: snapshot has " +
             std::to_string(n) + " slots, remapper has " +
             std::to_string(slots_.size()));
    }
    for (Slot& s : slots_) {
      visit(v, s.id);
      visit(v, s.outstanding);
    }
    if (v.saving()) return;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding == 0) continue;
      for (std::size_t j = i + 1; j < slots_.size(); ++j) {
        if (slots_[j].outstanding > 0 && slots_[j].id == slots_[i].id) {
          v.fail("ID remapper slots " + std::to_string(i) + " and " +
                 std::to_string(j) + " both map busy ID " +
                 std::to_string(slots_[i].id));
        }
      }
    }
  }

 private:
  struct Slot {
    axi::Id id = 0;
    std::uint32_t outstanding = 0;
  };

  std::optional<std::uint8_t> free_slot() const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding == 0) return static_cast<std::uint8_t>(i);
    }
    return std::nullopt;
  }

  std::vector<Slot> slots_;
};

}  // namespace tmu
