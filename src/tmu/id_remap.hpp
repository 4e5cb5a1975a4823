#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
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
  explicit IdRemapper(std::uint32_t max_uniq_ids)
      : slots_(max_uniq_ids) {}

  /// tID for an already-mapped ID, if any.
  std::optional<std::uint8_t> lookup(axi::Id id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
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
      map_[id] = *f;
      return f;
    }
    return std::nullopt;
  }

  /// Releases one transaction of tID; frees the slot at zero.
  void release(std::uint8_t tid) {
    Slot& s = slots_[tid];
    if (s.outstanding > 0 && --s.outstanding == 0) {
      map_.erase(s.id);
    }
  }

  /// The original AXI ID currently mapped to tid (valid while busy).
  axi::Id original_id(std::uint8_t tid) const { return slots_[tid].id; }

  std::uint32_t active_ids() const {
    return static_cast<std::uint32_t>(map_.size());
  }
  std::uint32_t outstanding(std::uint8_t tid) const {
    return slots_[tid].outstanding;
  }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slots_.size());
  }

  void clear() {
    for (Slot& s : slots_) s = {};
    map_.clear();
  }

  /// State serde: slots only; the ID->tID index is derived on load so
  /// the unordered map's iteration order never reaches the byte stream.
  /// It is rebuilt only where it disagrees with the loaded slots, which
  /// keeps its nodes when a restore finds it already right.
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
    if (!v.saving() && !index_matches()) {
      map_.clear();
      for (std::uint8_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].outstanding > 0) map_[slots_[i].id] = i;
      }
    }
  }

 private:
  struct Slot {
    axi::Id id = 0;
    std::uint32_t outstanding = 0;
  };

  /// map_ is exactly what rebuilding it from slots_ would give.
  bool index_matches() const {
    std::size_t live = 0;
    for (std::uint8_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding == 0) continue;
      ++live;
      const auto it = map_.find(slots_[i].id);
      if (it == map_.end() || it->second != i) return false;
    }
    return live == map_.size();
  }

  std::optional<std::uint8_t> free_slot() const {
    for (std::uint8_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].outstanding == 0) return i;
    }
    return std::nullopt;
  }

  std::vector<Slot> slots_;
  std::unordered_map<axi::Id, std::uint8_t> map_;
};

}  // namespace tmu
