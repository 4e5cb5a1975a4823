#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "axi/types.hpp"

/// tmu-axi-trace-v1: the repo's compact binary AXI transaction trace.
///
/// A trace is the cycle-exact timeline of one axi::Link as seen from the
/// manager side, captured by trace::Recorder and replayable through
/// trace::TraceTrafficGen (record/replay is the repo's trace-driven
/// workload frontend — see README "Transaction tracing").
///
/// Record semantics — chosen so a replayer can reproduce the recorded
/// manager's wires cycle-for-cycle, not just its handshakes:
///   * AW / W / AR (manager-driven channels) log *presentations*: the
///     cycle valid was first asserted for a payload. If valid deasserts
///     again without a handshake (e.g. an outstanding cap closing after
///     the other channel fired), a *retract* record marks that cycle and
///     a later re-presentation gets its own record. The handshake cycle
///     itself is implied by the environment (ready), so it is not
///     stored — that is what makes replay causal on a different
///     topology instead of deadlocking on a shifted ready.
///   * B / R (subordinate-driven channels) log *fires* (handshake
///     cycles) with ID/resp/data — the reference stream equivalence
///     tests and the timeline exporter consume.
///
/// On disk: a fixed header (magic, version, topology hash, link name,
/// record count, drop count) followed by `record_count` fixed-width
/// 32-byte little-endian records with delta-encoded cycle stamps. A
/// file is encoded whole from a complete buffer (encode_trace), so its
/// header always carries the real count. The reader is strict: bad
/// magic/version/enum values, the unfinalized count sentinel, truncated
/// or trailing bytes, and malformed flags all throw with a message
/// naming the offset.
namespace trace {

inline constexpr std::uint32_t kTraceVersion = 1;
inline constexpr std::size_t kTraceMagicBytes = 16;
inline constexpr char kTraceMagic[kTraceMagicBytes + 1] = "tmu-axi-trace-v1";
inline constexpr std::size_t kTraceRecordBytes = 32;
/// Header bytes before the variable-length link name.
inline constexpr std::size_t kTraceHeaderFixedBytes =
    kTraceMagicBytes + 4 + 8 + 8 + 8 + 4;
/// A record_count the encoder never writes: the placeholder a streaming
/// writer leaves until it patches the real count, so a file carrying it
/// is truncated or foreign.
inline constexpr std::uint64_t kTraceUnfinalized = ~std::uint64_t{0};

/// Which AXI channel a record belongs to (on-disk encoding).
enum class Channel : std::uint8_t { kAw = 0, kW = 1, kB = 2, kAr = 3, kR = 4 };

inline const char* to_string(Channel c) {
  switch (c) {
    case Channel::kAw: return "AW";
    case Channel::kW: return "W";
    case Channel::kB: return "B";
    case Channel::kAr: return "AR";
    case Channel::kR: return "R";
  }
  return "?";
}

/// One trace record. Cycles are absolute in memory and delta-encoded on
/// disk. Fields not meaningful for a channel are zero (canonical — the
/// encoder enforces it so buffers compare byte-for-byte).
struct TraceRecord {
  std::uint64_t cycle = 0;
  Channel ch = Channel::kAw;
  bool retract = false;  ///< AW/W/AR: presentation withdrawn, no handshake
  axi::Id id = 0;        ///< AW/AR/B/R
  axi::Addr addr = 0;    ///< AW/AR
  axi::Data data = 0;    ///< W/R
  std::uint8_t len = 0;    ///< AW/AR
  std::uint8_t size = 0;   ///< AW/AR
  std::uint8_t burst = 0;  ///< AW/AR (axi::Burst encoding)
  std::uint8_t resp = 0;   ///< B/R (axi::Resp encoding)
  std::uint8_t strb = 0;   ///< W
  bool last = false;       ///< W/R

  bool operator==(const TraceRecord&) const = default;

  /// State-serde opt-in (sim/state.hpp) so in-flight capture/replay
  /// buffers travel inside simulation snapshots. Flat: a buffer of
  /// these loads with one bounds check.
  static constexpr bool kFlatState = true;
  template <typename V>
  void visit_fields(V& v) {
    visit(v, cycle);
    visit(v, ch);
    visit(v, retract);
    visit(v, id);
    visit(v, addr);
    visit(v, data);
    visit(v, len);
    visit(v, size);
    visit(v, burst);
    visit(v, resp);
    visit(v, strb);
    visit(v, last);
  }
};

/// A decoded trace stream plus its header metadata.
struct TraceBuffer {
  std::string link;                ///< builder link name captured
  std::uint64_t topology_hash = 0; ///< SocDesc::hash() of the recording run
  std::uint64_t dropped = 0;       ///< records lost to the capture bound
  std::vector<TraceRecord> records;

  bool operator==(const TraceBuffer&) const = default;

  template <typename V>
  void visit_fields(V& v) {
    visit(v, link);
    visit(v, topology_hash);
    visit(v, dropped);
    visit(v, records);
  }
};

/// Encodes a whole buffer, header included: the bytes of a trace file.
/// Non-monotone cycle stamps throw std::invalid_argument (a programming
/// error, not a file problem).
std::string encode_trace(const TraceBuffer& buf);

/// Strict decode. Throws std::runtime_error ("tmu-axi-trace: ...") on
/// any malformed, truncated, unfinalized or trailing-garbage input.
TraceBuffer decode_trace(std::string_view bytes);

/// File round-trip. write_trace_file writes encode_trace(buf) and
/// returns false on I/O failure; read_trace_file throws like
/// decode_trace (plus on open failure, naming the path).
bool write_trace_file(const std::string& path, const TraceBuffer& buf);
TraceBuffer read_trace_file(const std::string& path);

}  // namespace trace
