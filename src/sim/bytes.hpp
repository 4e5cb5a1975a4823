#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

/// The repo's one binary codec, shared by both on-disk formats
/// (tmu-axi-trace-v1, tmu-soc-snapshot-v4) and the sim::StateVisitor
/// serde: fixed-width little-endian integers independent of the host's
/// byte order, a bounds-checked cursor for strict decoders, the file
/// prefix both formats open with, the FNV-1a 64 hash behind every
/// fingerprint and checksum, and the whole-file read and write every
/// artifact (trace, snapshot, campaign spec, slice and report) goes
/// through: each is encoded in memory first, then written in one call.
namespace sim::bytes {

/// Stores `v` at p[0, sizeof v), least-significant byte first. On a
/// little-endian host that is the value's own bytes, so store_le and
/// load_le copy them with one memcpy: GCC 12 compiles the portable byte
/// loop of load_le to eight loads, shifts and ors per u64.
template <typename UInt>
void store_le(unsigned char* p, UInt v) {
  static_assert(std::is_unsigned_v<UInt>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(UInt); ++i) {
      p[i] = static_cast<unsigned char>(v >> (8 * i));
    }
  }
}

template <typename UInt>
UInt load_le(const unsigned char* p) {
  static_assert(std::is_unsigned_v<UInt>);
  UInt v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof(UInt); ++i) {
      v = static_cast<UInt>(v | (UInt{p[i]} << (8 * i)));
    }
  }
  return v;
}

/// Appends `v` little-endian to a byte container (std::string or
/// std::vector<unsigned char>).
template <typename UInt, typename Out>
void put_le(Out& out, UInt v) {
  unsigned char b[sizeof(UInt)];
  store_le(b, v);
  out.insert(out.end(), b, b + sizeof(UInt));
}

/// Bounds-checked cursor over an immutable byte range. An overrun never
/// reads past the end: it reports "need <n> bytes, <m> left" through the
/// caller's error function, which must throw — each format names its
/// own errors.
class Reader {
 public:
  using Fail = std::function<void(const std::string&)>;

  Reader(const void* data, std::size_t size, Fail fail)
      : p_(static_cast<const unsigned char*>(data)),
        size_(size),
        fail_(std::move(fail)) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return size_ - pos_; }

  /// Consumes `n` bytes and returns where they start. Inlined, this is
  /// one compare: the underrun message is built out of line.
  const unsigned char* take(std::size_t n) {
    if (n > remaining()) [[unlikely]] underrun(n);
    const unsigned char* at = p_ + pos_;
    pos_ += n;
    return at;
  }

  /// Moves the cursor back to `at`, inside a range take() returned: a
  /// decoder that bounds-checked a whole block at once reports a
  /// failure inside it at the byte where it happened.
  void rewind(const unsigned char* at) {
    pos_ = static_cast<std::size_t>(at - p_);
  }

  template <typename UInt>
  UInt le() {
    return load_le<UInt>(take(sizeof(UInt)));
  }

  [[noreturn]] void fail(const std::string& msg) const {
    fail_(msg);
    std::abort();  // the error function returned: never read past the end
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void underrun(std::size_t n) const {
    fail("need " + std::to_string(n) + " bytes, " +
         std::to_string(remaining()) + " left");
  }

  const unsigned char* p_;
  std::size_t size_;
  std::size_t pos_ = 0;
  Fail fail_;
};

/// The prefix both file formats open with: a fixed-width magic (no NUL),
/// a u32 format version and the u64 SocDesc::hash() of the topology the
/// file belongs to.
template <typename Out>
void put_prefix(Out& out, std::string_view magic, std::uint32_t version,
                std::uint64_t topology_hash) {
  out.insert(out.end(), magic.begin(), magic.end());
  put_le(out, version);
  put_le(out, topology_hash);
}

struct Prefix {
  std::uint32_t version = 0;
  std::uint64_t topology_hash = 0;
};

/// Reads the prefix; a magic mismatch fails "bad magic (not a <format>
/// file)". The version comes back unchecked: each format words its own
/// rejection.
inline Prefix read_prefix(Reader& in, std::string_view magic,
                          const std::string& format) {
  if (std::memcmp(in.take(magic.size()), magic.data(), magic.size()) != 0) {
    in.fail("bad magic (not a " + format + " file)");
  }
  Prefix p;
  p.version = in.le<std::uint32_t>();
  p.topology_hash = in.le<std::uint64_t>();
  return p;
}

/// FNV-1a 64: the repo's one stable cross-process hash (SocDesc and
/// campaign-spec fingerprints, slice and snapshot checksums, memory
/// fingerprints).
inline std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::uint64_t fnv1a64(const void* p, std::size_t n) {
  return fnv1a64(std::string_view(static_cast<const char*>(p), n));
}

enum class FileStatus { kOk, kCannotOpen, kReadError, kWriteError };

/// Reads the whole file at `path` into `out`.
inline FileStatus read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return FileStatus::kCannotOpen;
  out.clear();
  char chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) out.append(chunk, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  return read_error ? FileStatus::kReadError : FileStatus::kOk;
}

/// Writes `bytes` to `path`, replacing any file there.
inline FileStatus write_file(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return FileStatus::kCannotOpen;
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  return written && closed ? FileStatus::kOk : FileStatus::kWriteError;
}

}  // namespace sim::bytes
