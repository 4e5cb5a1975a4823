// tmu-soc-snapshot-v4 on-disk format: strict decode with every
// rejection path pinned by byte mutation, restore() contract
// violations, and the committed fixture byte-pin (decode -> re-encode
// byte-identical AND re-capture byte-identical, so the walk itself is
// pinned cross-platform, not just the framing).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "axi/crossbar.hpp"
#include "axi/memory.hpp"
#include "axi/traffic_gen.hpp"
#include "fault/injector.hpp"
#include "sim/bytes.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/state.hpp"
#include "sim/stats.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "state_bytes.hpp"
#include "tmu/tmu.hpp"
#include "trace/format.hpp"

namespace {

using snapshot::Snapshot;
using snapshot::SnapshotError;

// The committed fixture's recipe. tests/data/ip_testbench_warm.tmusnap
// is this desc warmed for kFixtureCycle cycles — regenerating it here
// and comparing byte-for-byte pins the whole visitor walk, so any
// serde change that silently reorders or resizes state fails loudly.
soc::SocDesc fixture_desc() {
  tmu::TmuConfig cfg;
  cfg.variant = tmu::Variant::kFullCounter;
  cfg.tc_total_budget = 200;
  soc::SocDesc d = soc::ip_testbench_desc(cfg);
  d.managers.front().seed = 0xABCDEF;
  d.managers.front().traffic.enabled = true;
  d.managers.front().traffic.p_new_txn = 0.3;
  d.managers.front().traffic.len_max = 7;
  return d;
}
constexpr std::uint64_t kFixtureCycle = 300;
constexpr const char* kFixtureFile = "/ip_testbench_warm.tmusnap";

Snapshot small_snapshot(std::uint64_t cycles = 50) {
  const std::unique_ptr<soc::Soc> soc =
      soc::SocBuilder::build(soc::grid_desc(2, 2, 2));
  soc->sim().run(cycles);
  return snapshot::capture(*soc);
}

// Expects `fn` to throw a SnapshotError whose message contains `needle`
// (and carries the format's error prefix).
template <typename Fn>
void expect_rejects(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected SnapshotError containing \"" << needle << "\"";
  } catch (const SnapshotError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("tmu-soc-snapshot:", 0), 0u) << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

std::vector<unsigned char> read_bytes(const std::string& path) {
  std::string bytes;
  EXPECT_EQ(sim::bytes::read_file(path, bytes), sim::bytes::FileStatus::kOk)
      << "missing fixture " << path;
  return {bytes.begin(), bytes.end()};
}

using state_bytes::LoadBytes;
using state_bytes::SaveBytes;
using state_bytes::state_of;

// The bytes a saver writes for `x` alone.
template <typename T>
std::vector<unsigned char> saved_bytes(T x) {
  SaveBytes save;
  visit(save, x);
  return save.take_bytes();
}

// Where `m`'s state starts in the capture's payload.
std::vector<unsigned char>::iterator module_state_in(Snapshot& snap,
                                                     sim::Module& m) {
  const std::vector<unsigned char> state = state_of(m);
  const auto at = std::search(snap.payload.begin(), snap.payload.end(),
                              state.begin(), state.end());
  EXPECT_NE(at, snap.payload.end()) << m.name() << " state not in payload";
  return at;
}

// Inside `m`'s state, finds the only occurrence of `prefix` followed by
// the little-endian u32 `from` and overwrites that u32 with `to`.
void patch_u32(Snapshot& snap, sim::Module& m,
               std::vector<unsigned char> prefix, std::uint32_t from,
               std::uint32_t to) {
  const auto begin = module_state_in(snap, m);
  ASSERT_NE(begin, snap.payload.end());
  const auto end = begin + static_cast<std::ptrdiff_t>(state_of(m).size());
  sim::bytes::put_le(prefix, from);
  const auto hit = std::search(begin, end, prefix.begin(), prefix.end());
  ASSERT_NE(hit, end) << "field not found in " << m.name();
  ASSERT_EQ(std::search(hit + 1, end, prefix.begin(), prefix.end()), end)
      << "field not unique in " << m.name();
  std::vector<unsigned char> value;
  sim::bytes::put_le(value, to);
  std::copy(value.begin(), value.end(), hit + (prefix.size() - 4));
}

// Inside `m`'s state, the only occurrence of `bytes`.
std::vector<unsigned char>::iterator find_in_state(
    Snapshot& snap, sim::Module& m, const std::vector<unsigned char>& bytes) {
  const auto begin = module_state_in(snap, m);
  if (begin == snap.payload.end()) return begin;
  const auto end = begin + static_cast<std::ptrdiff_t>(state_of(m).size());
  const auto hit = std::search(begin, end, bytes.begin(), bytes.end());
  EXPECT_NE(hit, end) << "bytes not found in " << m.name();
  EXPECT_EQ(std::search(hit + 1, end, bytes.begin(), bytes.end()), end)
      << "bytes not unique in " << m.name();
  return hit == end ? snap.payload.end() : hit;
}

std::size_t offset_in(const Snapshot& snap,
                      std::vector<unsigned char>::const_iterator at) {
  return static_cast<std::size_t>(at - snap.payload.begin());
}

// A queue entry as the state walk writes it when it is its deque's only
// entry: the count 1, then the entry's leading ID.
std::vector<unsigned char> sole_entry_with_id(axi::Id id) {
  std::vector<unsigned char> bytes;
  sim::bytes::put_le(bytes, std::uint64_t{1});
  sim::bytes::put_le(bytes, id);
  return bytes;
}

TEST(SnapshotFormat, ImageLayoutAndRoundTrip) {
  const Snapshot snap = small_snapshot();
  const std::vector<unsigned char> image = snapshot::encode(snap);
  ASSERT_EQ(image.size(), snapshot::kHeaderBytes + snap.payload.size() +
                              snapshot::kChecksumBytes);
  EXPECT_EQ(std::memcmp(image.data(), snapshot::kMagic,
                        snapshot::kMagicBytes),
            0);
  EXPECT_EQ(snapshot::decode(image), snap);
}

TEST(SnapshotFormat, FileRoundTripIsExact) {
  const Snapshot snap = small_snapshot();
  const std::string path = "snapshot_format_roundtrip.tmusnap";
  snapshot::write_file(snap, path);
  const Snapshot loaded = snapshot::read_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded, snap);
}

TEST(SnapshotFormat, WriteToAnUnwritablePathNamesIt) {
  const std::string path = "/nonexistent/dir/x.tmusnap";
  expect_rejects([&] { snapshot::write_file(small_snapshot(), path); },
                 "cannot open '" + path + "' for writing");
}

TEST(SnapshotFormat, RejectsTruncationAtEveryBoundary) {
  const std::vector<unsigned char> image = snapshot::encode(small_snapshot());
  const std::size_t cuts[] = {0,
                              1,
                              snapshot::kMagicBytes,
                              snapshot::kHeaderBytes - 1,
                              snapshot::kHeaderBytes,
                              snapshot::kHeaderBytes + 7,  // < min file size
                              image.size() / 2,
                              image.size() - 1};
  for (std::size_t cut : cuts) {
    ASSERT_LT(cut, image.size());
    // Below the minimum the size check names the floor; above it the
    // payload count no longer matches the bytes actually present.
    const bool below_min =
        cut < snapshot::kHeaderBytes + snapshot::kChecksumBytes;
    expect_rejects([&] { snapshot::decode(image.data(), cut); },
                   below_min ? "bytes" : "disagrees");
  }
}

TEST(SnapshotFormat, RejectsBadMagic) {
  std::vector<unsigned char> image = snapshot::encode(small_snapshot());
  image[0] ^= 0x01;
  expect_rejects([&] { snapshot::decode(image); }, "bad magic");
}

TEST(SnapshotFormat, RejectsUnsupportedVersion) {
  std::vector<unsigned char> image = snapshot::encode(small_snapshot());
  image[snapshot::kMagicBytes] = 0x7E;  // version field, checked pre-checksum
  expect_rejects([&] { snapshot::decode(image); }, "unsupported version 126");
}

TEST(SnapshotFormat, RejectsOlderVersionImages) {
  // v3 payloads also carried a trace replayer's copy of its input stream
  // and a recorder's held presentations as 8-field payloads, v2 payloads
  // the crossbar's per-shard edge flags and its facade's edge report, v1
  // payloads the scheduler's traced fan-out and every wire's scheduling
  // slot; a v4 reader must refuse all three by name rather than misread
  // the walk.
  const std::vector<unsigned char> image =
      snapshot::encode(small_snapshot());
  ASSERT_EQ(image[snapshot::kMagicBytes], 4);
  for (const unsigned char old : {1, 2, 3}) {
    std::vector<unsigned char> older = image;
    older[snapshot::kMagicBytes] = old;
    expect_rejects([&] { snapshot::decode(older); },
                   "unsupported version " + std::to_string(old) +
                       " (reader knows 4)");
  }
}

TEST(SnapshotFormat, RejectsPayloadCountDisagreement) {
  std::vector<unsigned char> image = snapshot::encode(small_snapshot());
  image[snapshot::kMagicBytes + 20] ^= 0x01;  // payload-count field LSB
  expect_rejects([&] { snapshot::decode(image); }, "disagrees");
}

TEST(SnapshotFormat, RejectsChecksumTamper) {
  // Flipping any payload byte or any checksum byte must trip the
  // checksum before the payload is ever interpreted.
  std::vector<unsigned char> a = snapshot::encode(small_snapshot());
  a[snapshot::kHeaderBytes + a.size() / 3] ^= 0x40;
  expect_rejects([&] { snapshot::decode(a); }, "checksum mismatch");

  std::vector<unsigned char> b = snapshot::encode(small_snapshot());
  b.back() ^= 0x80;
  expect_rejects([&] { snapshot::decode(b); }, "checksum mismatch");
}

TEST(SnapshotRestore, RejectsTopologyHashMismatch) {
  const Snapshot snap = small_snapshot();
  expect_rejects([&] { snapshot::fork(snap, soc::grid_desc(2, 2, 1)); },
                 "topology hash mismatch");
}

TEST(SnapshotRestore, RejectsSchedPolicyMismatch) {
  // Payload bytes [0, 4) are the captured sched policy — the first
  // strict check inside the walk. The image-level checksum would catch
  // this on disk; in-memory tampering must still die with a named error.
  Snapshot snap = small_snapshot();
  snap.payload[0] ^= 0x01;
  expect_rejects([&] { snapshot::fork(snap, soc::grid_desc(2, 2, 2)); },
                 "sched policy");
}

TEST(SnapshotRestore, RejectsHeaderCycleDisagreement) {
  Snapshot snap = small_snapshot();
  snap.cycle += 1;
  expect_rejects([&] { snapshot::fork(snap, soc::grid_desc(2, 2, 2)); },
                 "disagrees with the payload's cycle");
}

TEST(SnapshotRestore, RejectsPayloadUnderrun) {
  Snapshot snap = small_snapshot();
  snap.payload.pop_back();
  expect_rejects([&] { snapshot::fork(snap, soc::grid_desc(2, 2, 2)); },
                 "payload underrun");
}

TEST(SnapshotRestore, RejectsTrailingPayloadBytes) {
  Snapshot snap = small_snapshot();
  snap.payload.push_back(0);
  expect_rejects([&] { snapshot::fork(snap, soc::grid_desc(2, 2, 2)); },
                 "trailing bytes");
}

TEST(SnapshotRestore, SurvivesRandomPayloadCorruption) {
  // A corrupted payload either fails the walk with a SnapshotError or
  // loads as some other (reachable-shape) state — it must never crash
  // or allocate unboundedly. Exercises the count/size strictness checks.
  const Snapshot clean = small_snapshot();
  sim::Rng rng(0xC0DE);
  for (int i = 0; i < 30; ++i) {
    Snapshot snap = clean;
    snap.payload[rng.range(0, snap.payload.size() - 1)] ^=
        static_cast<unsigned char>(rng.range(1, 255));
    try {
      const std::unique_ptr<soc::Soc> soc =
          snapshot::fork(snap, soc::grid_desc(2, 2, 2));
      soc->sim().run(10);  // whatever loaded must still simulate
    } catch (const SnapshotError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("tmu-soc-snapshot:", 0), 0u);
    }
  }
}

// Restore validates what the model would follow blindly: OTT links,
// FIFO shapes and the EI/free partition, the guard's presented entry and
// phases, and AXI sizes. Each case corrupts live state through public
// accessors, captures it, and expects the restore to refuse by name.
class CorruptedCapture : public ::testing::Test {
 protected:
  // The fixture netlist run until its write guard holds >= 2 entries.
  void SetUp() override {
    soc_ = soc::SocBuilder::build(fixture_desc());
    for (int c = 0; c < 2000 && ott().order().size() < 2; ++c) {
      soc_->sim().step();
    }
    ASSERT_GE(ott().order().size(), 2u);
  }

  tmu::Ott& ott() {
    return soc_->get<tmu::Tmu>("tmu").write_guard().ott();
  }
  int first() { return ott().order()[0]; }
  int second() { return ott().order()[1]; }
  int a_free_entry() {
    for (int i = 0; i < static_cast<int>(ott().capacity()); ++i) {
      if (!ott().at(i).valid) return i;
    }
    ADD_FAILURE() << "OTT full";
    return 0;
  }

  void expect_restore_rejects(const std::string& needle) {
    const Snapshot snap = snapshot::capture(*soc_);
    expect_rejects([&] { snapshot::fork(snap, fixture_desc()); }, needle);
  }

  axi::TrafficGenerator& gen() {
    return soc_->get<axi::TrafficGenerator>("gen");
  }
  tmu::Tmu& tmu() { return soc_->get<tmu::Tmu>("tmu"); }

  // Restores `bad` into a netlist that ran on past `clean`, so the log
  // that `length` reads is longer there than in the image, and expects
  // the rejection to name `needle` and to leave that log at its length:
  // the loader failed before it resized anything.
  template <typename Length>
  void expect_rejected_before_resize(const Snapshot& clean,
                                     const Snapshot& bad,
                                     const std::string& needle,
                                     Length length) {
    const std::unique_ptr<soc::Soc> used =
        snapshot::fork(clean, fixture_desc());
    const std::size_t image = length(*used);
    used->sim().run(300);
    const std::size_t before = length(*used);
    ASSERT_GT(before, image);
    expect_rejects([&] { snapshot::restore(bad, *used); }, needle);
    EXPECT_EQ(length(*used), before);
  }

  std::unique_ptr<soc::Soc> soc_;
};

TEST_F(CorruptedCapture, FifoLinkOutOfRange) {
  ott().at(first()).next = 1000;
  expect_restore_rejects("OTT tID FIFO link out of range");
}

TEST_F(CorruptedCapture, FifoCycle) {
  // Wherever the entry sits in its FIFO, a self-link never reaches -1.
  ott().at(second()).next = second();
  expect_restore_rejects("OTT tID FIFO");
}

TEST_F(CorruptedCapture, EntryTidOutOfRange) {
  ott().at(first()).tid = 200;  // would index the ID remapper's slots
  expect_restore_rejects("of another tID or a free one");
}

TEST_F(CorruptedCapture, LiveEntryMarkedFree) {
  ott().at(second()).valid = false;
  expect_restore_rejects("of another tID or a free one");
}

TEST_F(CorruptedCapture, FreeEntryMarkedValid) {
  ott().at(a_free_entry()).valid = true;
  expect_restore_rejects("valid LD entry outside every tID FIFO");
}

TEST_F(CorruptedCapture, PhaseOutOfRange) {
  ott().at(first()).phase = 200;  // would index the per-phase arrays
  expect_restore_rejects("OTT entry phase out of range");
}

TEST_F(CorruptedCapture, AxiSizeAboveSeven) {
  axi::TxnDesc d;
  d.size = 8;
  soc_->get<axi::TrafficGenerator>("gen").push(d);
  expect_restore_rejects("AXI size 8 exceeds 7");
}

TEST_F(CorruptedCapture, InvertedTrafficRange) {
  // len_min == len_max + 1: Rng::range would divide by zero on the
  // restored generator's first random transaction.
  axi::RandomTrafficConfig cfg = fixture_desc().managers.front().traffic;
  cfg.p_new_txn = 1.0;
  cfg.len_min = 1;
  cfg.len_max = 0;
  soc_->get<axi::TrafficGenerator>("gen").set_random(cfg);
  const Snapshot snap = snapshot::capture(*soc_);
  expect_rejects(
      [&] {
        const std::unique_ptr<soc::Soc> forked =
            snapshot::fork(snap, fixture_desc());
        forked->sim().run(10);
      },
      "traffic config has an inverted range: len_min 1 > len_max 0");
}

TEST_F(CorruptedCapture, CrossbarPortVectorShrunk) {
  // An idle grid_desc(2, 2, 0) crossbar's state opens with w_route: its
  // count (2, one grant queue per subordinate), then both queues, empty.
  // Claim one queue and drop the second: restored, sub shard 1 would
  // read w_route[1] past the end on its next eval.
  const soc::SocDesc desc = soc::grid_desc(2, 2, 0);
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(desc);
  soc->sim().run(20);
  Snapshot snap = snapshot::capture(*soc);

  const auto at = module_state_in(snap, soc->get<axi::Crossbar>("xbar"));
  ASSERT_NE(at, snap.payload.end());
  const std::vector<unsigned char> routes(at, at + 24);
  std::vector<unsigned char> want;
  for (const std::uint64_t n : {2, 0, 0}) sim::bytes::put_le(want, n);
  ASSERT_EQ(routes, want);
  *at = 1;
  snap.payload.erase(at + 8, at + 16);

  const Snapshot crafted = snapshot::decode(snapshot::encode(snap));
  expect_rejects([&] { snapshot::fork(crafted, desc); },
                 "crossbar w_route has 1 entries for 2 ports");
}

// R-burst countdowns of queued responses: a live entry holds len + 1 in
// [1, 256] until its last beat retires it. A restored 0 would send one
// beat without `last` and then count down from 2^32 - 1 — a hang of ~4G
// error beats — so both queues refuse anything outside the range.
TEST_F(CorruptedCapture, CrossbarDecErrReadCountdownOutOfRange) {
  // A 256-beat read to an unmapped address, three DECERR beats in: the
  // crossbar's queue entry for gen0 counts 253 beats still to send.
  const soc::SocDesc desc = soc::grid_desc(2, 2, 0);
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(desc);
  soc->get<axi::TrafficGenerator>("gen0").push(
      axi::TxnDesc{false, 0x2A, 0x10'0000, 0xFF});
  const axi::Link& port = soc->link("gen0.out");
  unsigned delivered = 0;
  for (int c = 0; c < 100 && delivered < 3; ++c) {
    if (axi::r_fire(port.req.read(), port.rsp.read())) ++delivered;
    soc->sim().step();
  }
  ASSERT_EQ(delivered, 3u);
  const Snapshot clean = snapshot::capture(*soc);
  for (const std::uint32_t bad : {0u, 257u}) {
    Snapshot snap = clean;
    patch_u32(snap, soc->get<axi::Crossbar>("xbar"), sole_entry_with_id(0x2A),
              253, bad);
    const Snapshot crafted = snapshot::decode(snapshot::encode(snap));
    expect_rejects([&] { snapshot::fork(crafted, desc); },
                   "crossbar DECERR read countdown " + std::to_string(bad) +
                       " out of range [1, 256]");
  }
  // The unpatched image restores and finishes the burst.
  const std::unique_ptr<soc::Soc> forked = snapshot::fork(clean, desc);
  auto& gen = forked->get<axi::TrafficGenerator>("gen0");
  EXPECT_TRUE(forked->sim().run_until([&] { return gen.completed() == 1; },
                                      300));
}

TEST_F(CorruptedCapture, TmuReadAbortCountdownOutOfRange) {
  // A 16-beat read whose R beats never arrive: the TMU times it out,
  // severs, and queues 16 SLVERR beats for the manager.
  soc::SocDesc desc = fixture_desc();
  desc.managers.front().traffic.enabled = false;
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(desc);
  soc->get<axi::TrafficGenerator>("gen").push(
      axi::TxnDesc{false, 0x2A, 0x100, 15});
  soc->get<fault::FaultInjector>("inj_s").arm(fault::FaultPoint::kRValidStuck);
  auto& tmu = soc->get<tmu::Tmu>("tmu");
  for (int c = 0; c < 2000 && !tmu.severed(); ++c) soc->sim().step();
  ASSERT_TRUE(tmu.severed());
  const Snapshot clean = snapshot::capture(*soc);
  for (const std::uint32_t bad : {0u, 257u}) {
    Snapshot snap = clean;
    patch_u32(snap, tmu, sole_entry_with_id(0x2A), 16, bad);
    const Snapshot crafted = snapshot::decode(snapshot::encode(snap));
    expect_rejects([&] { snapshot::fork(crafted, desc); },
                   "TMU read abort countdown " + std::to_string(bad) +
                       " out of range [1, 256]");
  }
  const std::unique_ptr<soc::Soc> forked = snapshot::fork(clean, desc);
  auto& gen = forked->get<axi::TrafficGenerator>("gen");
  EXPECT_TRUE(forked->sim().run_until([&] { return gen.completed() == 1; },
                                      300));
}

// Flat record logs (sim/state.hpp load_flat()) load with one bounds
// check per log. The field checks inside a record still run and name the
// offset of the field, and the count checks fire before the log is
// resized.
std::size_t records_of(soc::Soc& s) {
  return s.get<axi::TrafficGenerator>("gen").records().size();
}
std::size_t perf_records_of(soc::Soc& s) {
  return s.get<tmu::Tmu>("tmu").write_guard().perf_log().size();
}

TEST_F(CorruptedCapture, AxiSizeAboveSevenInACompletedRecord) {
  soc_->sim().run(300);  // completed transactions fill the logs
  ASSERT_FALSE(gen().records().empty());
  const Snapshot clean = snapshot::capture(*soc_);
  const axi::TxnRecord& last = gen().records().back();
  axi::TxnRecord bad = last;
  bad.desc.size = 8;
  Snapshot snap = clean;
  const std::vector<unsigned char> want = saved_bytes(last);
  const std::vector<unsigned char> patch = saved_bytes(bad);
  const auto at = find_in_state(snap, gen(), want);
  ASSERT_NE(at, snap.payload.end());
  std::copy(patch.begin(), patch.end(), at);
  // The size byte follows is_write (1), id (4), addr (8) and len (1).
  const std::size_t field = offset_in(snap, at) + 14;
  ASSERT_EQ(snap.payload[field], 8);
  expect_rejected_before_resize(
      clean, snapshot::decode(snapshot::encode(snap)),
      "AXI size 8 exceeds 7 (at payload offset " + std::to_string(field + 1) +
          ")",
      records_of);
}

TEST_F(CorruptedCapture, BoolByteTwoInAPerfRecord) {
  soc_->sim().run(300);  // completed transactions fill the logs
  const auto& log = tmu().write_guard().perf_log();
  ASSERT_FALSE(log.empty());
  const Snapshot clean = snapshot::capture(*soc_);
  Snapshot snap = clean;
  const auto at = find_in_state(snap, tmu(), saved_bytes(log.back()));
  ASSERT_NE(at, snap.payload.end());
  ASSERT_EQ(*at, 1);  // is_write leads the record
  *at = 2;
  expect_rejected_before_resize(
      clean, snapshot::decode(snapshot::encode(snap)),
      "bool byte is not 0 or 1 (at payload offset " +
          std::to_string(offset_in(snap, at) + 1) + ")",
      perf_records_of);
}

// The records_ log as the walk writes it: its count, then its records.
std::vector<unsigned char> log_head(const std::vector<axi::TxnRecord>& log) {
  std::vector<unsigned char> head;
  sim::bytes::put_le<std::uint64_t>(head, log.size());
  const std::vector<unsigned char> first = saved_bytes(log.front());
  head.insert(head.end(), first.begin(), first.end());
  return head;
}

TEST_F(CorruptedCapture, RecordLogCountBeyondThePayload) {
  soc_->sim().run(300);  // completed transactions fill the logs
  ASSERT_FALSE(gen().records().empty());
  const Snapshot clean = snapshot::capture(*soc_);
  Snapshot probe = clean;
  const auto at = find_in_state(probe, gen(), log_head(gen().records()));
  ASSERT_NE(at, probe.payload.end());
  const std::size_t count_at = offset_in(probe, at);
  const std::uint64_t left = clean.payload.size() - count_at - 8;
  // A count one above the bytes left, and the smallest count whose
  // product with the record width wraps 64 bits to less than what is
  // left: a check that multiplied would let it through.
  const std::uint64_t w = sim::flat::width<axi::TxnRecord>();
  const std::uint64_t wraps = ~std::uint64_t{0} / w + 1;
  ASSERT_LT(wraps * w, left);
  for (const std::uint64_t count : {left + 1, wraps}) {
    Snapshot snap = clean;
    sim::bytes::store_le(snap.payload.data() + count_at, count);
    expect_rejected_before_resize(
        clean, snapshot::decode(snapshot::encode(snap)),
        "container count " + std::to_string(count) +
            " exceeds the remaining payload (" + std::to_string(left) +
            " bytes)",
        records_of);
  }
}

TEST_F(CorruptedCapture, RecordLogCountThePayloadCannotBack) {
  // A payload that ends inside records_: the count is within the bytes
  // left, but not at 47 bytes a record. The loader decodes record by
  // record into a scratch record and fails where a per-primitive walk
  // fails, at the first field past the end.
  soc_->sim().run(300);
  const std::size_t n = gen().records().size();
  ASSERT_GE(n, 4u);
  Snapshot snap = snapshot::capture(*soc_);
  const auto at = find_in_state(snap, gen(), log_head(gen().records()));
  ASSERT_NE(at, snap.payload.end());
  const std::size_t w = sim::flat::width<axi::TxnRecord>();
  const std::size_t end = offset_in(snap, at) + 8 + (n / 2) * w;
  snap.payload.resize(end);
  expect_rejected_before_resize(
      snapshot::capture(*soc_), snapshot::decode(snapshot::encode(snap)),
      "payload underrun: need 1 bytes, 0 left (at payload offset " +
          std::to_string(end) + ")",
      records_of);
}

TEST_F(CorruptedCapture, RepeatedMemoryPageNumber) {
  // Capture writes the pages in increasing page order; a repeated page
  // would overwrite the first copy and drop a page from the next capture.
  auto& mem = soc_->get<axi::MemorySubordinate>("mem");
  mem.poke(0x0000, 1);
  mem.poke(0x1000, 2);
  Snapshot snap = snapshot::capture(*soc_);
  const auto at = module_state_in(snap, mem);
  ASSERT_NE(at, snap.payload.end());
  // The page count, then (page number, 4 KiB) pairs: pages 0 and 1 first.
  const auto second = at + 16 + 4096;
  ASSERT_EQ(sim::bytes::load_le<std::uint64_t>(&at[8]), 0u);
  ASSERT_EQ(sim::bytes::load_le<std::uint64_t>(&*second), 1u);
  std::copy(at + 8, at + 16, second);
  const Snapshot crafted = snapshot::decode(snapshot::encode(snap));
  expect_rejects([&] { snapshot::fork(crafted, fixture_desc()); },
                 "memory page numbers must increase: page 0 follows page 0");
}

TEST(SnapshotRestore, RejectsRemapperSlotsSharingABusyId) {
  // lookup() scans the slots for the first busy one holding an ID, so
  // two busy slots of one ID would hide the second; the load refuses.
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(fixture_desc());
  axi::IdRemapper& remap = soc->get<tmu::Tmu>("tmu").write_guard().remapper();
  ASSERT_EQ(remap.admit(0xBEEF), 0);
  ASSERT_EQ(remap.admit(0xBEE0), 1);
  const Snapshot clean = snapshot::capture(*soc);
  // Slot 1 as the walk writes it: its ID, then its outstanding count.
  std::vector<unsigned char> slot;
  sim::bytes::put_le(slot, std::uint32_t{0xBEE0});
  sim::bytes::put_le(slot, std::uint32_t{1});
  Snapshot snap = clean;
  const auto at = find_in_state(snap, soc->get<tmu::Tmu>("tmu"), slot);
  ASSERT_NE(at, snap.payload.end());
  sim::bytes::store_le(&*at, std::uint32_t{0xBEEF});
  const Snapshot crafted = snapshot::decode(snapshot::encode(snap));
  expect_rejects([&] { snapshot::fork(crafted, fixture_desc()); },
                 "ID remapper slots 0 and 1 both map busy ID 48879");
  // The unpatched image restores both mappings.
  const std::unique_ptr<soc::Soc> forked =
      snapshot::fork(clean, fixture_desc());
  const axi::IdRemapper& got =
      forked->get<tmu::Tmu>("tmu").write_guard().remapper();
  EXPECT_EQ(got.lookup(0xBEEF), 0);
  EXPECT_EQ(got.lookup(0xBEE0), 1);
}

// Every single-byte flip of the committed fixture's payload either fails
// the restore with a named SnapshotError or restores a netlist that
// simulates (the ASan job runs this through the snapshot label, where a
// bad index or shift aborts the test).
TEST(SnapshotRestore, EveryPayloadByteFlipOfTheFixtureIsSafe) {
  const std::string path = std::string(TMU_TEST_DATA_DIR) + kFixtureFile;
  const Snapshot clean = snapshot::decode(read_bytes(path));
  const soc::SocDesc desc = fixture_desc();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < clean.payload.size(); ++i) {
    Snapshot snap = clean;
    snap.payload[i] ^= 0xFF;
    try {
      const std::unique_ptr<soc::Soc> soc = snapshot::fork(snap, desc);
      soc->sim().run(10);
    } catch (const SnapshotError& e) {
      ++rejected;
      ASSERT_EQ(std::string(e.what()).rfind("tmu-soc-snapshot:", 0), 0u)
          << "byte " << i << ": " << e.what();
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(SnapshotFixture, FixtureDecodesAndReencodesByteIdentically) {
  const std::string path = std::string(TMU_TEST_DATA_DIR) + kFixtureFile;
  const std::vector<unsigned char> bytes = read_bytes(path);
  ASSERT_FALSE(bytes.empty());
  const Snapshot snap = snapshot::decode(bytes);
  EXPECT_EQ(snap.cycle, kFixtureCycle);
  EXPECT_EQ(snap.topology_hash, fixture_desc().hash());
  EXPECT_EQ(snapshot::encode(snap), bytes);
}

TEST(SnapshotFixture, RecaptureIsByteIdenticalToFixture) {
  // The strong pin: warming the fixture desc today must reproduce the
  // committed image bit-for-bit — serde layout, RNG streams, scheduler
  // bookkeeping and all.
  const std::string path = std::string(TMU_TEST_DATA_DIR) + kFixtureFile;
  const std::vector<unsigned char> bytes = read_bytes(path);
  const std::unique_ptr<soc::Soc> soc =
      soc::SocBuilder::build(fixture_desc());
  soc->sim().run(kFixtureCycle);
  EXPECT_EQ(snapshot::encode(snapshot::capture(*soc)), bytes);
}

TEST(SnapshotFixture, FixtureForksAndContinuesLikeColdRun) {
  const std::string path = std::string(TMU_TEST_DATA_DIR) + kFixtureFile;
  const Snapshot snap = snapshot::decode(read_bytes(path));
  const std::unique_ptr<soc::Soc> forked =
      snapshot::fork(snap, fixture_desc());
  EXPECT_EQ(forked->sim().cycle(), kFixtureCycle);
  forked->sim().run(200);

  const std::unique_ptr<soc::Soc> cold =
      soc::SocBuilder::build(fixture_desc());
  cold->sim().run(kFixtureCycle + 200);
  EXPECT_EQ(forked->sim().cycle(), cold->sim().cycle());
  EXPECT_EQ(forked->sim().module_evals(), cold->sim().module_evals());
  EXPECT_EQ(forked->metrics().snapshot().to_json(),
            cold->metrics().snapshot().to_json());
}

// ---------------------------------------------------------------------
// Loader containers: flat record logs, and the maps and histograms whose
// nodes a restore keeps.
// ---------------------------------------------------------------------

template <typename T>
void expect_flat_width(const char* name) {
  EXPECT_EQ(sim::flat::width<T>(), saved_bytes(T{}).size()) << name;
}

TEST(SnapshotFlatLogs, WidthIsWhatASaverWritesForOneRecord) {
  expect_flat_width<axi::TxnRecord>("TxnRecord");
  expect_flat_width<tmu::TxnPerfRecord>("TxnPerfRecord");
  expect_flat_width<tmu::FaultRecord>("FaultRecord");
  expect_flat_width<tmu::LifecycleEvent>("LifecycleEvent");
  expect_flat_width<trace::TraceRecord>("TraceRecord");
  expect_flat_width<std::uint8_t>("uint8_t");
  expect_flat_width<std::uint16_t>("uint16_t");
  expect_flat_width<std::uint32_t>("uint32_t");
  expect_flat_width<std::uint64_t>("uint64_t");
}

TEST(SnapshotFlatLogs, LoadOverwritesShorterAndLongerLogs) {
  std::vector<tmu::FaultRecord> image(3);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i].cycle = 100 + i;
    image[i].is_write = i % 2 == 0;
    image[i].kind = tmu::FaultKind::kIdMismatch;
    image[i].phase_valid = true;
    image[i].phase = static_cast<std::uint8_t>(i);
    image[i].id = static_cast<axi::Id>(7 * i);
    image[i].addr = 0x1000 * i;
    image[i].elapsed = static_cast<std::uint32_t>(i);
    image[i].budget = 64;
  }
  const std::vector<unsigned char> bytes = saved_bytes(image);
  for (const std::size_t held : {0, 2, 3, 5}) {
    std::vector<tmu::FaultRecord> log(held);
    for (tmu::FaultRecord& r : log) r.elapsed = 99;
    LoadBytes in(bytes);
    visit(in, log);
    EXPECT_EQ(in.consumed(), bytes.size()) << held;
    EXPECT_EQ(saved_bytes(log), bytes) << held;
  }
}

using U32Map = std::map<std::uint32_t, std::uint64_t>;

std::vector<unsigned char> map_bytes(
    const std::vector<std::pair<std::uint32_t, std::uint64_t>>& entries) {
  std::vector<unsigned char> bytes;
  sim::bytes::put_le<std::uint64_t>(bytes, entries.size());
  for (const auto& [k, val] : entries) {
    sim::bytes::put_le(bytes, k);
    sim::bytes::put_le(bytes, val);
  }
  return bytes;
}

TEST(SnapshotLoadContainers, MapKeepsTheNodesOfKeysThatStay) {
  const U32Map image{{2, 20}, {3, 30}, {9, 90}};
  U32Map m{{1, 1}, {2, 2}, {5, 5}, {9, 9}, {12, 12}};
  const std::uint64_t* two = &m.at(2);
  const std::uint64_t* nine = &m.at(9);
  const std::vector<unsigned char> bytes = saved_bytes(image);
  LoadBytes in(bytes);
  visit(in, m);
  EXPECT_EQ(m, image);
  EXPECT_EQ(&m.at(2), two);
  EXPECT_EQ(&m.at(9), nine);
}

TEST(SnapshotLoadContainers, MapOfUnorderedKeysKeepsTheFirstValue) {
  // No saver writes this: keys out of order and one repeated. The first
  // value read for a key wins, as when the loader rebuilt the map.
  U32Map m{{2, 1}, {6, 6}};
  const std::vector<unsigned char> bytes =
      map_bytes({{5, 50}, {2, 20}, {5, 55}, {7, 70}});
  LoadBytes in(bytes);
  visit(in, m);
  EXPECT_EQ(m, (U32Map{{2, 20}, {5, 50}, {7, 70}}));
}

TEST(SnapshotLoadContainers, HistogramLoadIsAddCountOverAnEmptyHistogram) {
  // A saver's bins, then bins out of order with a repeat and a zero count.
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> cases[] = {
      {{1, 4}, {3, 1}, {8, 2}},
      {{8, 2}, {3, 1}, {8, 5}, {5, 0}, {1, 4}},
  };
  for (const auto& bins : cases) {
    sim::Histogram want;
    std::vector<unsigned char> bytes;
    sim::bytes::put_le<std::uint64_t>(bytes, bins.size());
    for (const auto& [value, cnt] : bins) {
      want.add_count(value, cnt);
      sim::bytes::put_le<std::uint64_t>(bytes, value);
      sim::bytes::put_le<std::uint64_t>(bytes, cnt);
    }
    sim::Histogram h;
    for (const std::uint64_t x : {3, 4, 9}) h.add(x);  // caches bin 9
    const std::uint64_t* three = &h.bins().at(3);
    LoadBytes in(bytes);
    visit(in, h);
    EXPECT_EQ(h.bins(), want.bins());
    if (&bins == &cases[0]) {
      EXPECT_EQ(&h.bins().at(3), three);
    }
    h.add(9);  // the erased bin 9 must not be the cached one
    EXPECT_EQ(h.count(9), 1u);
  }
}

}  // namespace
