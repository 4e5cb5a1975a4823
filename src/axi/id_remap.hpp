#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "axi/types.hpp"

namespace axi {

/// AXI ID Remapper (§II-A): compacts the wide, sparse AXI4 ID space into
/// tIDs in [0, capacity). A slot is allocated on the first transaction
/// of an ID and freed when its outstanding count drops to zero, so one
/// ID keeps its tID while busy and AXI same-ID ordering holds end to
/// end. When all slots are taken by *other* IDs, new IDs must stall:
/// the TMU gates the AW/AR ready path, an axi::Bridge its upstream
/// readies.
class IdRemapper {
 public:
  /// The most slots a remapper may have: tIDs are 8 bits.
  static constexpr std::uint32_t kMaxSlots = 256;

  /// Throws std::invalid_argument above kMaxSlots slots.
  explicit IdRemapper(std::uint32_t slots) {
    if (slots > kMaxSlots) {
      throw std::invalid_argument("ID remapper capacity " +
                                  std::to_string(slots) +
                                  " exceeds 256 (tIDs are 8 bits)");
    }
    slots_.resize(slots);
  }

  /// tID for an already-mapped ID, if any. A scan over the slots (a
  /// default TMU has 4): a busy slot's ID is unique.
  std::optional<std::uint8_t> lookup(Id id) const {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding > 0 && slots_[i].id == id) {
        return static_cast<std::uint8_t>(i);
      }
    }
    return std::nullopt;
  }

  /// True if a transaction with this ID could be admitted now
  /// (already mapped, or a free slot exists).
  bool can_admit(Id id) const {
    return lookup(id).has_value() || free_slot().has_value();
  }

  /// Admits one transaction of `id`; allocates a slot if needed.
  /// Returns the tID, or nullopt if saturated (caller must stall).
  std::optional<std::uint8_t> admit(Id id) {
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

  /// Whether `tid` names a slot that is mapped now. Takes a full-width
  /// ID, as a response carries it, so an out-of-range one is not busy.
  bool busy(Id tid) const {
    return tid < slots_.size() && slots_[tid].outstanding > 0;
  }

  /// The original AXI ID currently mapped to tid (valid while busy).
  Id original_id(std::uint8_t tid) const { return slots_[tid].id; }

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
    Id id = 0;
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

}  // namespace axi
