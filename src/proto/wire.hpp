// Byte-level primitives of the perqd wire format.
//
// All integers are little-endian fixed width; doubles travel as the raw
// IEEE-754 bit pattern (bit_cast through uint64), so a value round-trips
// bit-for-bit -- the loopback-equivalence guarantee of the daemon depends
// on this. Byte blobs and sequences are u32-count-prefixed.
//
// A layout is written once, as one field list over a generic `io` that is
// either a WireWriter or a WireReader: `io(a, b, c)` writes or reads the
// fields in order, each at the width of its C++ type (an integer at its
// own size, a double as its 8 raw bytes, a byte vector as a blob), and
// `io.seq(v, min_bytes, each)` carries a counted sequence. Encoder and
// parser therefore cannot drift apart.
//
// WireReader is non-throwing: any out-of-bounds read flips a sticky `ok`
// flag and subsequent reads return zero values. Callers check ok() once at
// the end, which keeps parsers of attacker-controlled bytes branch-simple.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace perq::proto {

/// Appends fixed-width little-endian values to a byte buffer.
///
/// By default the writer owns its buffer (and take() moves it out). The
/// external-buffer constructor retargets every append at a caller-owned
/// vector instead: hot paths keep one scratch vector alive across frames,
/// so steady-state encodes reuse its capacity and never touch the heap.
class WireWriter {
 public:
  WireWriter() : buf_(&own_) {}
  /// Appends into `out` (not cleared: the caller chooses append vs reuse).
  explicit WireWriter(std::vector<std::uint8_t>& out) : buf_(&out) {}

  void u8(std::uint8_t v) { buf_->push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void f64(double v) { append_le(std::bit_cast<std::uint64_t>(v)); }
  void bytes(const std::uint8_t* data, std::size_t n);

  /// Writes each field in order (see the file comment).
  template <typename... T>
  void operator()(const T&... fields) {
    (put(fields), ...);
  }
  /// Writes v.size() as a u32, then each element through `each`.
  /// `min_bytes` is the parser's bound on an element's size.
  template <typename T, typename F>
  void seq(const std::vector<T>& v, std::size_t /*min_bytes*/, F each) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& e : v) each(e);
  }
  /// A writer never fails; this lets one field list check a reader.
  bool ok() const { return true; }

  const std::vector<std::uint8_t>& data() const { return *buf_; }
  std::vector<std::uint8_t> take() { return std::move(*buf_); }
  std::size_t size() const { return buf_->size(); }

  /// Overwrites 4 bytes at `offset` (for back-patching length prefixes).
  void patch_u32(std::size_t offset, std::uint32_t v);

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      u32(static_cast<std::uint32_t>(v.size()));
      bytes(v.data(), v.size());
    } else {
      static_assert(std::is_integral_v<T>, "no wire form for this type");
      append_le(static_cast<std::make_unsigned_t<T>>(v));
    }
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_;
};

/// Reads fixed-width little-endian values from a byte span; sticky failure.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Reads a u32-length-prefixed blob into `out` (cleared first, capacity
  /// kept). An overrunning length flips the sticky failure flag.
  void blob(std::vector<std::uint8_t>& out);

  /// Reads each field in order (see the file comment).
  template <typename... T>
  void operator()(T&... fields) {
    (get(fields), ...);
  }
  /// Reads a u32 count, then each element through `each` into `v`
  /// (cleared first, capacity kept). Each element takes at least
  /// `min_bytes`, so a count that cannot fit in the rest of the span is a
  /// forged length, not a short read: it fails before anything is sized.
  template <typename T, typename F>
  void seq(std::vector<T>& v, std::size_t min_bytes, F each) {
    const std::uint32_t n = u32();
    if (!ok_ || static_cast<std::size_t>(n) * min_bytes > remaining()) {
      ok_ = false;
      return;
    }
    v.clear();
    v.resize(n);
    for (T& e : v) each(e);
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// True when every byte was consumed and no read overran.
  bool exhausted() const { return ok_ && pos_ == size_; }

 private:
  template <typename T>
  T read_le() {
    if (!ok_ || size_ - pos_ < sizeof(T)) {
      ok_ = false;
      return T{0};
    }
    T v{0};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  void get(T& v) {
    if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<T, std::vector<std::uint8_t>>) {
      blob(v);
    } else {
      static_assert(std::is_integral_v<T>, "no wire form for this type");
      v = static_cast<T>(read_le<std::make_unsigned_t<T>>());
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace perq::proto
