// Pooled restores allocate nothing: snapshot::restore into a netlist
// whose containers already have the image's shape reuses their storage
// (flat record logs, queues, maps, memory pages, histograms, the OTT
// link check's scratch, the name checks).
//
// Heap allocations are counted through replaced global operator new and
// delete. Every form is replaced, over malloc/aligned_alloc and free, so
// a sanitizer that pairs allocation and deallocation functions still
// sees matching pairs.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "sim/bytes.hpp"
#include "snapshot/snapshot.hpp"
#include "soc/builder.hpp"
#include "soc/topologies.hpp"
#include "tmu/tmu.hpp"

namespace {

// Only the test thread allocates while counting.
bool g_counting = false;
std::uint64_t g_allocations = 0;
std::uint64_t g_bytes = 0;

void* allocate(std::size_t n, std::size_t align) {
  if (g_counting) {
    ++g_allocations;
    g_bytes += n;
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  return p;
}

void* allocate_or_throw(std::size_t n, std::size_t align) {
  void* p = allocate(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

struct Count {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

// Heap allocations `fn` makes.
template <typename Fn>
Count allocations_of(Fn&& fn) {
  g_allocations = 0;
  g_bytes = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_allocations, g_bytes};
}

}  // namespace

void* operator new(std::size_t n) {
  return allocate_or_throw(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
  return allocate_or_throw(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

// The committed fixture's recipe (see test_snapshot_format.cpp): an Fc
// IP testbench warmed for 300 cycles.
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

snapshot::Snapshot fixture() {
  std::string bytes;
  EXPECT_EQ(sim::bytes::read_file(std::string(TMU_TEST_DATA_DIR) +
                                      "/ip_testbench_warm.tmusnap",
                                  bytes),
            sim::bytes::FileStatus::kOk);
  return snapshot::decode(reinterpret_cast<const unsigned char*>(bytes.data()),
                          bytes.size());
}

TEST(SnapshotAlloc, SecondRestoreIntoTheSameNetlistAllocatesNothing) {
  const snapshot::Snapshot snap = fixture();
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(fixture_desc());
  // The first restore fills a fresh netlist: its logs, queues and memory
  // pages come from the heap (and show that the count sees them).
  const Count first = allocations_of([&] { snapshot::restore(snap, *soc); });
  EXPECT_GT(first.allocations, 0u);
  const Count second = allocations_of([&] { snapshot::restore(snap, *soc); });
  EXPECT_EQ(second.allocations, 0u) << second.bytes << " bytes";
  // The netlist still holds the image.
  EXPECT_EQ(snapshot::capture(*soc), snap);
}

TEST(SnapshotAlloc, RestoreAfterARunAllocatesNothing) {
  // A pooled trial netlist: restored once, then run on, so its logs are
  // longer and other IDs are outstanding than in the image.
  const snapshot::Snapshot snap = fixture();
  const std::unique_ptr<soc::Soc> soc = soc::SocBuilder::build(fixture_desc());
  snapshot::restore(snap, *soc);
  soc->sim().run(500);
  const Count again = allocations_of([&] { snapshot::restore(snap, *soc); });
  EXPECT_EQ(again.allocations, 0u) << again.bytes << " bytes";
  EXPECT_EQ(snapshot::capture(*soc), snap);
}

}  // namespace
