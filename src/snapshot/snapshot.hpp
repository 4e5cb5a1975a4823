#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "soc/builder.hpp"

/// Simulation-state snapshots: checkpoint a settled Soc netlist and fork
/// it into independent trial instances.
///
/// A Snapshot is the complete dynamic state of an elaborated Soc at a
/// settled cycle boundary — every wire value, every module's registers
/// and queues (via sim::StateVisitor reflection, see sim/state.hpp), the
/// event scheduler's pending worklist and counters, the RNG streams, the
/// cycle/eval counters and the metrics registry values. Structure
/// (modules, links, the declared wire fan-out, metric slot names) is NOT
/// stored: it is reproduced by elaborating the same SocDesc, and the
/// snapshot pins it with the desc's canonical hash.
///
/// The contract that makes forking exact: restore(capture(soc)) into a
/// netlist built from the same desc under the same sched policy yields a
/// simulator whose every subsequent cycle is byte-identical to the
/// original's — same wires, same RNG draws, same scheduler wake order,
/// same metrics. The campaign engine exploits this to run a scenario's
/// common warm-up phase once and fork thousands of trials from it
/// (campaign::make_forking_trial_fn), restoring each trial into a pooled
/// netlist that earlier trials of the group ran on.
///
/// On-disk format `tmu-soc-snapshot-v4` (strict, versioned,
/// checksummed; encoded with the shared sim/bytes.hpp codec, all
/// integers little-endian):
///
///   offset  size  field
///   0       16    magic "tmu-soc-snapshot"
///   16      4     version (currently 4; older images are rejected: v3
///                 also carried a trace replayer's copy of its input
///                 stream and held a recorder's last presentations as
///                 8-field payloads, v2 the crossbar's per-shard edge
///                 flags and its facade's edge report, which nothing
///                 read, and v1 the scheduler's traced fan-out and every
///                 wire's scheduling slot)
///   20      8     topology hash (SocDesc::hash() of the captured desc)
///   28      8     cycle at capture
///   36      8     payload byte count N
///   44      N     payload (the StateVisitor byte stream)
///   44+N    8     FNV-1a 64 checksum of bytes [0, 44+N)
///
/// The decoder rejects — each with a named SnapshotError — truncation
/// anywhere, bad magic, unsupported version, a payload count that
/// disagrees with the file size, and a checksum mismatch. restore()
/// additionally rejects a topology-hash mismatch, a sched-policy
/// mismatch, a header cycle that disagrees with the payload, and any
/// payload that underruns, overruns or misaligns the netlist walk.
namespace snapshot {

inline constexpr std::size_t kMagicBytes = 16;
inline constexpr char kMagic[kMagicBytes + 1] = "tmu-soc-snapshot";
inline constexpr std::uint32_t kVersion = 4;
/// Fixed bytes before the payload (magic + version + hash + cycle + count).
inline constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 8 + 8 + 8;
inline constexpr std::size_t kChecksumBytes = 8;

/// Any snapshot failure: encode/decode format violations, I/O errors,
/// and capture/restore contract violations. Messages are prefixed
/// "tmu-soc-snapshot:" and name the offending field or offset.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One captured netlist state. Plain data: copyable, comparable,
/// shareable across threads (restore() never mutates the snapshot).
struct Snapshot {
  std::uint64_t topology_hash = 0;  ///< SocDesc::hash() of the capture
  std::uint64_t cycle = 0;          ///< Simulator::cycle() at capture
  std::vector<unsigned char> payload;

  bool operator==(const Snapshot&) const = default;
};

/// Captures the complete dynamic state of `soc`. Settles the netlist
/// first (capture is only meaningful at a settled boundary; settling an
/// already-settled netlist is a no-op).
Snapshot capture(soc::Soc& soc);

/// Restores `snap` into `soc`, which must be elaborated from the same
/// desc (pinned by the topology hash, Soc::topology_hash()) under the
/// same sched policy. Any such netlist qualifies, whatever it has run
/// since: the restore overwrites all of its dynamic state, so it then
/// equals a fresh fork(). After restore the simulator reports the
/// captured cycle and continues byte-identically to the captured one.
/// Restore on the thread that will drive the netlist: it re-syncs the
/// simulator with that thread's ambient epoch (sim/context.hpp),
/// which is what makes handing a netlist to another thread safe. Throws
/// SnapshotError on any mismatch; `soc` may be left partially written
/// in that case — discard it (the cheap rejections all fire before any
/// state is touched).
void restore(const Snapshot& snap, soc::Soc& soc);

/// Builds a fresh netlist from `desc` and restores `snap` into it — the
/// fork primitive. Each call yields an independent instance (own
/// Simulator, own context) that may run on its own thread.
std::unique_ptr<soc::Soc> fork(const Snapshot& snap, const soc::SocDesc& desc);

/// Encodes to the on-disk image (header + payload + checksum).
std::vector<unsigned char> encode(const Snapshot& snap);

/// Strict decode of a complete on-disk image; throws SnapshotError
/// naming the first violation.
Snapshot decode(const unsigned char* data, std::size_t n);
inline Snapshot decode(const std::vector<unsigned char>& image) {
  return decode(image.data(), image.size());
}

/// Writes encode(snap) to `path`; throws SnapshotError on I/O failure.
void write_file(const Snapshot& snap, const std::string& path);

/// Reads and decodes `path`; throws SnapshotError on I/O failure or any
/// format violation.
Snapshot read_file(const std::string& path);

}  // namespace snapshot
