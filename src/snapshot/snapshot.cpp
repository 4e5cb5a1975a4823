#include "snapshot/snapshot.hpp"

#include <cstdio>

#include "sim/bytes.hpp"
#include "sim/state.hpp"

namespace snapshot {

namespace {

[[noreturn]] void bail(const std::string& msg) {
  throw SnapshotError("tmu-soc-snapshot: " + msg);
}

/// Appends the netlist walk's byte stream to the visitor's buffer.
class SaveVisitor final : public sim::StateVisitor {
 public:
  [[noreturn]] void fail(const std::string& msg) override { bail(msg); }
};

/// Consumes a payload; any underrun or contract violation throws with
/// the current payload offset, so a drifted walk names where it died.
class LoadVisitor final : public sim::StateVisitor {
 public:
  using StateVisitor::StateVisitor;

  [[noreturn]] void fail(const std::string& msg) override {
    bail(msg + " (at payload offset " + std::to_string(consumed()) + ")");
  }
};

}  // namespace

Snapshot capture(soc::Soc& soc) {
  soc.sim().settle();
  SaveVisitor v;
  soc.visit_state(v);
  Snapshot snap;
  snap.topology_hash = soc.topology_hash();
  snap.cycle = soc.sim().cycle();
  snap.payload = v.take_bytes();
  return snap;
}

void restore(const Snapshot& snap, soc::Soc& soc) {
  const std::uint64_t have = soc.topology_hash();
  if (snap.topology_hash != have) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "topology hash mismatch: snapshot was captured from "
                  "%016llx, netlist '%s' hashes %016llx",
                  static_cast<unsigned long long>(snap.topology_hash),
                  soc.desc().name.c_str(),
                  static_cast<unsigned long long>(have));
    bail(buf);
  }
  LoadVisitor v(snap.payload.data(), snap.payload.size());
  soc.visit_state(v);
  if (v.consumed() != snap.payload.size()) {
    bail("payload has " + std::to_string(snap.payload.size() - v.consumed()) +
         " trailing bytes after the netlist walk");
  }
  if (soc.sim().cycle() != snap.cycle) {
    bail("header cycle " + std::to_string(snap.cycle) +
         " disagrees with the payload's cycle " +
         std::to_string(soc.sim().cycle()));
  }
}

std::unique_ptr<soc::Soc> fork(const Snapshot& snap,
                               const soc::SocDesc& desc) {
  std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(desc);
  restore(snap, *soc);
  return soc;
}

std::vector<unsigned char> encode(const Snapshot& snap) {
  std::vector<unsigned char> out;
  out.reserve(kHeaderBytes + snap.payload.size() + kChecksumBytes);
  sim::bytes::put_prefix(out, {kMagic, kMagicBytes}, kVersion,
                         snap.topology_hash);
  sim::bytes::put_le(out, snap.cycle);
  sim::bytes::put_le<std::uint64_t>(out, snap.payload.size());
  out.insert(out.end(), snap.payload.begin(), snap.payload.end());
  sim::bytes::put_le(out, sim::bytes::fnv1a64(out.data(), out.size()));
  return out;
}

Snapshot decode(const unsigned char* data, std::size_t n) {
  if (n < kHeaderBytes + kChecksumBytes) {
    bail("file is " + std::to_string(n) + " bytes; even an empty snapshot is " +
         std::to_string(kHeaderBytes + kChecksumBytes));
  }
  sim::bytes::Reader in(data, n, bail);
  const sim::bytes::Prefix prefix =
      sim::bytes::read_prefix(in, {kMagic, kMagicBytes}, "tmu-soc-snapshot");
  if (prefix.version != kVersion) {
    bail("unsupported version " + std::to_string(prefix.version) +
         " (reader knows " + std::to_string(kVersion) + ")");
  }
  Snapshot snap;
  snap.topology_hash = prefix.topology_hash;
  snap.cycle = in.le<std::uint64_t>();
  const std::uint64_t count = in.le<std::uint64_t>();
  const std::uint64_t body = n - kHeaderBytes - kChecksumBytes;
  if (count != body) {
    bail("payload count " + std::to_string(count) + " disagrees with the " +
         std::to_string(body) + " payload bytes in the file (truncated or "
         "trailing bytes)");
  }
  const unsigned char* payload = in.take(body);
  const std::uint64_t want = in.le<std::uint64_t>();
  const std::uint64_t got = sim::bytes::fnv1a64(data, n - kChecksumBytes);
  if (want != got) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "checksum mismatch: file says %016llx, content hashes "
                  "%016llx",
                  static_cast<unsigned long long>(want),
                  static_cast<unsigned long long>(got));
    bail(buf);
  }
  snap.payload.assign(payload, payload + body);
  return snap;
}

void write_file(const Snapshot& snap, const std::string& path) {
  const std::vector<unsigned char> image = encode(snap);
  const sim::bytes::FileStatus st = sim::bytes::write_file(
      path, {reinterpret_cast<const char*>(image.data()), image.size()});
  if (st == sim::bytes::FileStatus::kCannotOpen) {
    bail("cannot open '" + path + "' for writing");
  }
  if (st == sim::bytes::FileStatus::kWriteError) {
    bail("write to '" + path + "' failed");
  }
}

Snapshot read_file(const std::string& path) {
  std::string image;
  const sim::bytes::FileStatus st = sim::bytes::read_file(path, image);
  if (st == sim::bytes::FileStatus::kCannotOpen) {
    bail("cannot open '" + path + "' for reading");
  }
  if (st == sim::bytes::FileStatus::kReadError) {
    bail("read from '" + path + "' failed");
  }
  return decode(reinterpret_cast<const unsigned char*>(image.data()),
                image.size());
}

}  // namespace snapshot
