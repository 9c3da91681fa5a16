// Little-endian byte serialization for protocol messages.
//
// Deliberately tiny: fixed-width integers, doubles and length-prefixed blobs.
// Readers are bounds-checked and report truncation instead of crashing,
// because the corrupt qdisc can hand us damaged bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

namespace rdsim::net {

/// Writes fields through a cursor into one buffer. A caller that knows the
/// exact wire size passes it to the constructor, which sizes the buffer once,
/// so every field is a bounds check and a fixed-size copy. A writer without
/// a size (or one that outruns it) grows the buffer geometrically.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// A fresh buffer of exactly `size` bytes.
  explicit ByteWriter(std::size_t size) { buf_.resize(size); }

  /// Reuse a leased buffer (e.g. from a PayloadPool) of any length and
  /// contents: writing starts at offset zero and overwrites its old bytes,
  /// which are never read. The buffer is lengthened (zero-filled) only when
  /// it is shorter than `size`, and take() cuts it to the bytes written.
  explicit ByteWriter(std::vector<std::uint8_t>&& reuse, std::size_t size = 0)
      : buf_{std::move(reuse)} {
    if (buf_.size() < size) buf_.resize(size);
  }

  void u8(std::uint8_t v) { put(&v, sizeof v); }
  void u16(std::uint16_t v) { put(&v, sizeof v); }
  void u32(std::uint32_t v) { put(&v, sizeof v); }
  void u64(std::uint64_t v) { put(&v, sizeof v); }
  void i64(std::int64_t v) { put(&v, sizeof v); }
  void f64(double v) { put(&v, sizeof v); }
  void bytes(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    put(b.data(), b.size());
  }
  /// Append raw bytes without a length prefix.
  void raw(const std::uint8_t* p, std::size_t n) { put(p, n); }

  /// Overwrite 4 already-written bytes at `offset` (for checksum back-patching).
  void patch_u32(std::size_t offset, std::uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof v);
  }

  /// The bytes written so far.
  std::span<const std::uint8_t> data() const { return {buf_.data(), pos_}; }
  /// The bytes written so far, as an owning buffer; the writer is left empty.
  std::vector<std::uint8_t> take() {
    buf_.resize(pos_);
    pos_ = 0;
    return std::move(buf_);
  }
  std::size_t size() const { return pos_; }

 private:
  void put(const void* p, std::size_t n) {
    if (n == 0) return;  // memcpy from an empty container's null data()
    if (buf_.size() - pos_ < n) [[unlikely]] {
      buf_.resize(std::max(pos_ + n, 2 * buf_.size()));
    }
    std::memcpy(buf_.data() + pos_, p, n);
    pos_ += n;
  }
  std::vector<std::uint8_t> buf_;  ///< [0, pos_) written, [pos_, size()) not yet
  std::size_t pos_{0};
};

class ByteReader {
 public:
  /// Empty view; every read fails with ok() == false.
  ByteReader() : buf_{nullptr}, size_{0} {}
  explicit ByteReader(std::span<const std::uint8_t> buf) : buf_{buf.data()}, size_{buf.size()} {}
  ByteReader(const std::uint8_t* data, std::size_t size) : buf_{data}, size_{size} {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }
  double f64() { return get<double>(); }

  /// The length-prefixed blob ByteWriter::bytes() wrote, viewed in place:
  /// valid only while the underlying buffer lives. Empty (and ok() false)
  /// when the prefix or the blob runs past the end.
  std::span<const std::uint8_t> bytes_view() {
    const std::uint32_t n = u32();
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return {};
    }
    const std::span<const std::uint8_t> b{buf_ + pos_, n};
    pos_ += n;
    return b;
  }

 private:
  template <typename T>
  T get() {
    T v{};
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, buf_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_{0};
  bool ok_{true};
};

}  // namespace rdsim::net
