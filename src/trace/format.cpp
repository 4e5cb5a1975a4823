// tmu-axi-trace-v1 binary encode/decode on the shared sim/bytes.hpp
// codec. Layout (all little-endian):
//
//   offset  size  field
//   0       16    magic "tmu-axi-trace-v1" (no NUL)
//   16      4     u32 version (= 1)
//   20      8     u64 topology hash (SocDesc::hash() of the capture run)
//   28      8     u64 dropped (records lost to the capture bound)
//   36      8     u64 record count (never kTraceUnfinalized, which only
//                 a truncated or foreign file carries)
//   44      4     u32 link-name length
//   48      n     link name bytes
//   48+n    32*k  records
//
// Record (32 bytes): u32 cycle_delta | u8 channel | u8 flags
// (bit0 last, bit1 retract) | u8 len | u8 size | u32 id | u8 burst |
// u8 resp | u8 strb | u8 pad(0) | u64 addr | u64 data. Cycle stamps are
// deltas against the previous record (first record: against 0), so a
// mostly-quiet multi-million-cycle capture still costs 32 bytes per
// event, not per cycle.

#include "trace/format.hpp"

#include <stdexcept>

#include "sim/bytes.hpp"

namespace trace {

namespace {

constexpr std::uint8_t kFlagLast = 0x1;
constexpr std::uint8_t kFlagRetract = 0x2;

using sim::bytes::load_le;
using sim::bytes::put_le;

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("tmu-axi-trace: " + what);
}

/// Zeroes every field the record's channel does not carry, so encoded
/// streams are canonical (buffers compare byte-for-byte) and a reader
/// can reject smuggled garbage.
TraceRecord canonical(const TraceRecord& r) {
  TraceRecord c;
  c.cycle = r.cycle;
  c.ch = r.ch;
  c.retract = r.retract;
  if (r.retract) return c;  // a retract is a timestamp, nothing more
  switch (r.ch) {
    case Channel::kAw:
    case Channel::kAr:
      c.id = r.id;
      c.addr = r.addr;
      c.len = r.len;
      c.size = r.size;
      c.burst = r.burst;
      break;
    case Channel::kW:
      c.data = r.data;
      c.strb = r.strb;
      c.last = r.last;
      break;
    case Channel::kB:
      c.id = r.id;
      c.resp = r.resp;
      break;
    case Channel::kR:
      c.id = r.id;
      c.data = r.data;
      c.resp = r.resp;
      c.last = r.last;
      break;
  }
  return c;
}

void encode_record(std::string& out, const TraceRecord& raw,
                   std::uint64_t& last_cycle, std::uint64_t index) {
  const TraceRecord r = canonical(raw);
  if (r.cycle < last_cycle) {
    throw std::invalid_argument(
        "tmu-axi-trace: record " + std::to_string(index) + " cycle " +
        std::to_string(r.cycle) + " precedes previous cycle " +
        std::to_string(last_cycle) + " (records must be cycle-ordered)");
  }
  const std::uint64_t delta = r.cycle - last_cycle;
  if (delta > 0xFFFFFFFFull) {
    throw std::invalid_argument(
        "tmu-axi-trace: record " + std::to_string(index) + " cycle gap " +
        std::to_string(delta) + " exceeds the 32-bit delta encoding");
  }
  last_cycle = r.cycle;
  put_le(out, static_cast<std::uint32_t>(delta));
  out += static_cast<char>(r.ch);
  out += static_cast<char>((r.last ? kFlagLast : 0) |
                           (r.retract ? kFlagRetract : 0));
  out += static_cast<char>(r.len);
  out += static_cast<char>(r.size);
  put_le<std::uint32_t>(out, r.id);
  out += static_cast<char>(r.burst);
  out += static_cast<char>(r.resp);
  out += static_cast<char>(r.strb);
  out += '\0';  // pad
  put_le<std::uint64_t>(out, r.addr);
  put_le<std::uint64_t>(out, r.data);
}

}  // namespace

std::string encode_trace(const TraceBuffer& buf) {
  std::string out;
  out.reserve(kTraceHeaderFixedBytes + buf.link.size() +
              buf.records.size() * kTraceRecordBytes);
  sim::bytes::put_prefix(out, {kTraceMagic, kTraceMagicBytes}, kTraceVersion,
                         buf.topology_hash);
  put_le(out, buf.dropped);
  put_le<std::uint64_t>(out, buf.records.size());
  put_le(out, static_cast<std::uint32_t>(buf.link.size()));
  out += buf.link;
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < buf.records.size(); ++i) {
    encode_record(out, buf.records[i], last, i);
  }
  return out;
}

TraceBuffer decode_trace(std::string_view bytes) {
  if (bytes.size() < kTraceHeaderFixedBytes) {
    bad("truncated header: " + std::to_string(bytes.size()) + " bytes, need " +
        std::to_string(kTraceHeaderFixedBytes));
  }
  sim::bytes::Reader in(bytes.data(), bytes.size(), bad);
  const sim::bytes::Prefix prefix = sim::bytes::read_prefix(
      in, {kTraceMagic, kTraceMagicBytes}, "tmu-axi-trace");
  if (prefix.version != kTraceVersion) {
    bad("unsupported version " + std::to_string(prefix.version) +
        " (expected " + std::to_string(kTraceVersion) + ")");
  }
  TraceBuffer buf;
  buf.topology_hash = prefix.topology_hash;
  buf.dropped = in.le<std::uint64_t>();
  const std::uint64_t count = in.le<std::uint64_t>();
  if (count == kTraceUnfinalized) {
    bad("unfinalized trace (record count sentinel: a truncated or foreign "
        "file)");
  }
  const std::uint32_t link_len = in.le<std::uint32_t>();
  if (link_len > 4096) {
    bad("implausible link-name length " + std::to_string(link_len));
  }
  if (in.remaining() < link_len) bad("truncated link name");
  buf.link.assign(reinterpret_cast<const char*>(in.take(link_len)), link_len);

  // Divide, never multiply: count * kTraceRecordBytes wraps for a
  // corrupt count >= 2^59 and would pass a multiplied check.
  const std::size_t payload = in.remaining();
  if (payload % kTraceRecordBytes != 0 ||
      payload / kTraceRecordBytes != count) {
    bad("payload size mismatch: header says " + std::to_string(count) +
        " records (" + std::to_string(count * kTraceRecordBytes) +
        " bytes), file carries " + std::to_string(payload) +
        " (truncated or trailing bytes)");
  }

  buf.records.reserve(count);
  std::uint64_t cycle = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const unsigned char* r = in.take(kTraceRecordBytes);
    const auto where = [&] { return "record " + std::to_string(i); };
    TraceRecord rec;
    cycle += load_le<std::uint32_t>(r);
    rec.cycle = cycle;
    if (r[4] > static_cast<std::uint8_t>(Channel::kR)) {
      bad(where() + ": unknown channel " + std::to_string(r[4]));
    }
    rec.ch = static_cast<Channel>(r[4]);
    const std::uint8_t flags = r[5];
    if ((flags & ~(kFlagLast | kFlagRetract)) != 0) {
      bad(where() + ": unknown flag bits " + std::to_string(flags));
    }
    rec.last = (flags & kFlagLast) != 0;
    rec.retract = (flags & kFlagRetract) != 0;
    if (rec.retract &&
        (rec.ch == Channel::kB || rec.ch == Channel::kR)) {
      bad(where() + ": retract flag on subordinate-driven channel " +
          std::string(to_string(rec.ch)));
    }
    rec.len = r[6];
    rec.size = r[7];
    rec.id = load_le<std::uint32_t>(r + 8);
    rec.burst = r[12];
    if (rec.burst > static_cast<std::uint8_t>(axi::Burst::kWrap)) {
      bad(where() + ": bad burst encoding " + std::to_string(rec.burst));
    }
    rec.resp = r[13];
    if (rec.resp > static_cast<std::uint8_t>(axi::Resp::kDecErr)) {
      bad(where() + ": bad resp encoding " + std::to_string(rec.resp));
    }
    rec.strb = r[14];
    if (r[15] != 0) bad(where() + ": nonzero pad byte");
    rec.addr = load_le<std::uint64_t>(r + 16);
    rec.data = load_le<std::uint64_t>(r + 24);
    if (rec != canonical(rec)) {
      bad(where() + ": non-canonical " + to_string(rec.ch) +
          " record (fields the channel does not carry are set)");
    }
    buf.records.push_back(rec);
  }
  return buf;
}

bool write_trace_file(const std::string& path, const TraceBuffer& buf) {
  return sim::bytes::write_file(path, encode_trace(buf)) ==
         sim::bytes::FileStatus::kOk;
}

TraceBuffer read_trace_file(const std::string& path) {
  std::string bytes;
  const sim::bytes::FileStatus st = sim::bytes::read_file(path, bytes);
  if (st == sim::bytes::FileStatus::kCannotOpen) {
    bad("cannot open '" + path + "'");
  }
  if (st == sim::bytes::FileStatus::kReadError) {
    bad("I/O error reading '" + path + "'");
  }
  try {
    return decode_trace(bytes);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

}  // namespace trace
