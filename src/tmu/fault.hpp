#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "axi/types.hpp"
#include "tmu/config.hpp"

namespace tmu {

/// The four checks of the guard FSMs (Figs. 1 and 2).
enum class FaultKind : std::uint8_t {
  kTimeout = 0,      ///< a phase (Fc) or transaction (Tc) budget expired
  kHandshake = 1,    ///< handshake rule broken (valid dropped, payload
                     ///< changed, WLAST/RLAST misplaced, W without AW)
  kIdMismatch = 2,   ///< response ID maps to a txn not awaiting it
  kUnrequested = 3,  ///< response with no outstanding transaction at all
};

inline const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kTimeout: return "TIMEOUT";
    case FaultKind::kHandshake: return "HANDSHAKE";
    case FaultKind::kIdMismatch: return "ID_MISMATCH";
    case FaultKind::kUnrequested: return "UNREQUESTED";
  }
  return "?";
}

/// One error-log entry. The Full-Counter fills every field (phase-level
/// pinpointing); the Tiny-Counter reports transaction-level information
/// only (phase is the whole transaction).
struct FaultRecord {
  std::uint64_t cycle = 0;
  bool is_write = true;
  FaultKind kind = FaultKind::kTimeout;
  bool phase_valid = false;     ///< Fc: the failing phase is known
  std::uint8_t phase = 0;       ///< WritePhase / ReadPhase value
  axi::Id id = 0;
  std::uint8_t tid = 0;
  axi::Addr addr = 0;
  std::uint32_t elapsed = 0;    ///< cycles spent when flagged
  std::uint32_t budget = 0;     ///< allotted cycles

  /// Flat (sim/state.hpp): a log of these loads with one bounds check.
  static constexpr bool kFlatState = true;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, cycle);
    visit(v, is_write);
    visit(v, kind);
    visit(v, phase_valid);
    visit(v, phase);
    visit(v, id);
    visit(v, tid);
    visit(v, addr);
    visit(v, elapsed);
    visit(v, budget);
  }

  std::string describe() const {
    std::ostringstream os;
    os << "@" << cycle << " " << (is_write ? "WR" : "RD") << " "
       << to_string(kind);
    if (phase_valid) {
      os << " phase="
         << (is_write ? to_string(static_cast<WritePhase>(phase))
                      : to_string(static_cast<ReadPhase>(phase)));
    }
    os << " id=" << id << " tid=" << unsigned{tid} << " addr=0x" << std::hex
       << addr << std::dec << " elapsed=" << elapsed << "/" << budget;
    return os.str();
  }
};

}  // namespace tmu
