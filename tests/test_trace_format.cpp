// tmu-axi-trace-v1 binary format: canonical encode/decode round-trips,
// the file writer vs. the in-memory encoder, strict-reader error paths,
// and byte-identity of the committed regression fixture.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "sim/bytes.hpp"
#include "trace/format.hpp"

namespace {

using namespace trace;

TraceRecord aw(std::uint64_t cycle, std::uint32_t id, std::uint64_t addr,
               std::uint8_t len = 0) {
  return TraceRecord{cycle, Channel::kAw, false, id, addr, 0, len, 3, 1,
                     0, 0, false};
}
TraceRecord w(std::uint64_t cycle, std::uint64_t data, bool last) {
  return TraceRecord{cycle, Channel::kW, false, 0, 0, data, 0, 0, 0,
                     0, 0xFF, last};
}
TraceRecord b(std::uint64_t cycle, std::uint32_t id, std::uint8_t resp = 0) {
  return TraceRecord{cycle, Channel::kB, false, id, 0, 0, 0, 0, 0,
                     resp, 0, false};
}
TraceRecord ar(std::uint64_t cycle, std::uint32_t id, std::uint64_t addr) {
  return TraceRecord{cycle, Channel::kAr, false, id, addr, 0, 0, 3, 1,
                     0, 0, false};
}
TraceRecord r(std::uint64_t cycle, std::uint32_t id, std::uint64_t data,
              bool last) {
  return TraceRecord{cycle, Channel::kR, false, id, 0, data, 0, 0, 0,
                     0, 0, last};
}
TraceRecord retract(std::uint64_t cycle, Channel ch) {
  return TraceRecord{cycle, ch, true};
}

TraceBuffer sample_buffer() {
  TraceBuffer buf;
  buf.link = "gen.out";
  buf.topology_hash = 0xDEADBEEFCAFEF00Dull;
  buf.dropped = 3;
  buf.records = {
      aw(5, 2, 0x8000, 3),
      w(6, 0x1111111111111111ull, false),
      ar(6, 1, 0x4000),
      retract(8, Channel::kAr),
      w(9, 0x2222222222222222ull, true),
      ar(12, 1, 0x4000),
      b(14, 2, 2),  // SLVERR
      r(20, 1, 0x3333333333333333ull, true),
      // A >32-bit-delta-free large gap: still one u32 delta.
      aw(20 + 0xFFFFFFFFull, 7, 0xFFFF'FFFF'FFFF'FFF8ull, 255),
  };
  return buf;
}

TEST(TraceFormat, EncodeDecodeRoundTrips) {
  const TraceBuffer buf = sample_buffer();
  const std::string bytes = encode_trace(buf);
  EXPECT_EQ(bytes.size(), kTraceHeaderFixedBytes + buf.link.size() +
                              buf.records.size() * kTraceRecordBytes);
  const TraceBuffer back = decode_trace(bytes);
  EXPECT_EQ(back, buf);
}

TEST(TraceFormat, EmptyBufferRoundTrips) {
  TraceBuffer buf;
  buf.link = "m.in";
  const TraceBuffer back = decode_trace(encode_trace(buf));
  EXPECT_EQ(back, buf);
  EXPECT_TRUE(back.records.empty());
}

TEST(TraceFormat, EncoderCanonicalizesForeignFields) {
  // A W record smuggling AW-only fields: the encoder zeroes them, so the
  // decoded record differs from the input but is canonical.
  TraceRecord dirty = w(4, 0xAB, true);
  dirty.id = 9;
  dirty.addr = 0x1234;
  dirty.len = 7;
  TraceBuffer buf;
  buf.records = {dirty};
  const TraceBuffer back = decode_trace(encode_trace(buf));
  EXPECT_EQ(back.records[0], w(4, 0xAB, true));
}

TEST(TraceFormat, EncoderRejectsNonMonotoneCycles) {
  TraceBuffer buf;
  buf.records = {aw(10, 0, 0), aw(9, 0, 0)};
  EXPECT_THROW(encode_trace(buf), std::invalid_argument);
}

TEST(TraceFormat, WriteTraceFileWritesTheEncodedBytes) {
  const TraceBuffer buf = sample_buffer();
  const std::string path = ::testing::TempDir() + "trace_writer_test.axitrace";
  ASSERT_TRUE(write_trace_file(path, buf));
  std::string written;
  ASSERT_EQ(sim::bytes::read_file(path, written), sim::bytes::FileStatus::kOk);
  EXPECT_EQ(written, encode_trace(buf));
  std::remove(path.c_str());
  EXPECT_FALSE(write_trace_file("/nonexistent/dir/x.axitrace", buf));
}

TEST(TraceFormat, WriteReadFileRoundTrips) {
  const TraceBuffer buf = sample_buffer();
  const std::string path = ::testing::TempDir() + "trace_file_test.axitrace";
  ASSERT_TRUE(write_trace_file(path, buf));
  EXPECT_EQ(read_trace_file(path), buf);
  std::remove(path.c_str());
}

TEST(TraceFormat, ReadMissingFileThrowsWithPath) {
  try {
    read_trace_file("/nonexistent/dir/x.axitrace");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dir/x.axitrace"),
              std::string::npos);
  }
}

// ---- strict-reader error paths ----

void expect_decode_error(std::string bytes, const char* needle) {
  try {
    decode_trace(bytes);
    FAIL() << "expected decode to reject: " << needle;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(TraceFormatStrict, TruncatedHeader) {
  expect_decode_error(encode_trace(sample_buffer()).substr(0, 20),
                      "truncated header");
}

TEST(TraceFormatStrict, BadMagic) {
  std::string bytes = encode_trace(sample_buffer());
  bytes[0] = 'X';
  expect_decode_error(bytes, "bad magic");
}

TEST(TraceFormatStrict, UnsupportedVersion) {
  std::string bytes = encode_trace(sample_buffer());
  bytes[kTraceMagicBytes] = 9;
  expect_decode_error(bytes, "unsupported version 9");
}

TEST(TraceFormatStrict, UnfinalizedSentinel) {
  std::string bytes = encode_trace(sample_buffer());
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kTraceMagicBytes + 4 + 8 + 8 + i] = static_cast<char>(0xFF);
  }
  expect_decode_error(bytes, "unfinalized");
}

TEST(TraceFormatStrict, TruncatedAndTrailingPayload) {
  const std::string bytes = encode_trace(sample_buffer());
  expect_decode_error(bytes.substr(0, bytes.size() - 1), "payload size");
  expect_decode_error(bytes + '\0', "payload size");

  // 2^59 records are 2^64 bytes: a multiplied size check wraps to 0 and
  // would accept this 53-byte file with an empty payload.
  TraceBuffer empty;
  empty.link = "gen.o";
  std::string wrapped = encode_trace(empty);
  wrapped[kTraceMagicBytes + 4 + 8 + 8 + 7] = 0x08;  // count MSB
  expect_decode_error(wrapped, "payload size");
}

TEST(TraceFormatStrict, MalformedRecordFields) {
  const TraceBuffer one = [] {
    TraceBuffer b2;
    b2.link = "l";
    b2.records = {aw(1, 0, 0)};
    return b2;
  }();
  const std::string bytes = encode_trace(one);
  const std::size_t rec = kTraceHeaderFixedBytes + one.link.size();

  auto mutate = [&](std::size_t off, char v) {
    std::string m = bytes;
    m[rec + off] = v;
    return m;
  };
  expect_decode_error(mutate(4, 5), "unknown channel 5");
  expect_decode_error(mutate(5, 0x10), "unknown flag bits");
  expect_decode_error(mutate(12, 3), "bad burst encoding 3");
  expect_decode_error(mutate(15, 1), "nonzero pad byte");
  // resp on an AW record is non-canonical even when the enum is valid.
  expect_decode_error(mutate(13, 1), "non-canonical AW record");
  expect_decode_error(mutate(13, 7), "bad resp encoding 7");

  // Retract flag on a subordinate-driven channel.
  TraceBuffer bb;
  bb.link = "l";
  bb.records = {b(1, 0)};
  std::string bbytes = encode_trace(bb);
  bbytes[rec + 5] = 0x2;
  expect_decode_error(bbytes, "retract flag on subordinate-driven channel");
}

// ---- committed regression fixture ----

TEST(TraceFormatFixture, FixtureDecodesAndReencodesByteIdentically) {
  const std::string path =
      std::string(TMU_TEST_DATA_DIR) + "/ip_testbench_gen.axitrace";
  std::string bytes;
  ASSERT_EQ(sim::bytes::read_file(path, bytes), sim::bytes::FileStatus::kOk)
      << "missing fixture " << path;

  const TraceBuffer buf = decode_trace(bytes);
  EXPECT_EQ(buf.link, "gen.out");
  EXPECT_EQ(buf.dropped, 0u);
  EXPECT_GT(buf.records.size(), 1000u);  // 2000 busy cycles of traffic
  // Pin the stream against accidental re-generation drift: decode →
  // re-encode must reproduce the file byte-for-byte.
  EXPECT_EQ(encode_trace(buf), bytes);
}

}  // namespace
