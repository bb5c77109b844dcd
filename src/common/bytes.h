#ifndef HER_COMMON_BYTES_H_
#define HER_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace her {

/// Append-only little-endian byte sink used by the snapshot format.
/// Integers are either fixed-width (header fields that must be seekable)
/// or LEB128 varints (payload counts and ids); floating point is written
/// as the raw IEEE-754 bit pattern so values round-trip bit-exactly —
/// a requirement for the kill-and-resume Pi bit-equality guarantee.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { data_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
  }

  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      PutU8(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutU8(static_cast<uint8_t>(v));
  }

  void PutFloat(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU32(bits);
  }

  void PutDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    PutU64(bits);
  }

  void PutBytes(const void* p, size_t n) {
    data_.append(static_cast<const char*>(p), n);
  }

  /// Length-prefixed string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    PutBytes(s.data(), s.size());
  }

  /// Length-prefixed float vector (raw bit patterns).
  void PutFloatVec(std::span<const float> v) {
    PutVarint(v.size());
    for (float f : v) PutFloat(f);
  }

  void PutDoubleVec(const std::vector<double>& v) {
    PutVarint(v.size());
    for (double d : v) PutDouble(d);
  }

  template <typename Int>
  void PutIntVec(std::span<const Int> v) {
    PutVarint(v.size());
    for (Int x : v) PutVarint(static_cast<uint64_t>(x));
  }
  template <typename Int>
  void PutIntVec(const std::vector<Int>& v) {
    PutIntVec(std::span<const Int>(v));
  }

  /// Ragged float matrix (model weight tensors).
  void PutFloatVecs(const std::vector<std::vector<float>>& vs) {
    PutVarint(vs.size());
    for (const auto& v : vs) PutFloatVec(v);
  }

  const std::string& data() const { return data_; }
  size_t size() const { return data_.size(); }

 private:
  std::string data_;
};

/// Bounds-checked reader over a byte span. Every accessor returns a
/// Status instead of crashing or reading out of bounds, so corrupted or
/// truncated snapshot payloads surface as clean errors — the format's
/// "never a crash" contract. Element counts are sanity-checked against
/// the bytes actually remaining before any allocation, so a bit-flipped
/// length cannot trigger a huge allocation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  Status GetU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status GetU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status GetU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status GetVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return Truncated("varint");
      uint8_t b = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::IOError("bytes: varint too long");
  }

  Status GetFloat(float* out) {
    uint32_t bits = 0;
    HER_RETURN_NOT_OK(GetU32(&bits));
    std::memcpy(out, &bits, sizeof bits);
    return Status::OK();
  }

  Status GetDouble(double* out) {
    uint64_t bits = 0;
    HER_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(out, &bits, sizeof bits);
    return Status::OK();
  }

  Status GetString(std::string* out) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(GetVarint(&n));
    if (n > remaining()) return Truncated("string");
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status GetFloatVec(std::vector<float>* out) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(GetVarint(&n));
    if (n > remaining() / 4) return Truncated("float vec");
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      float f = 0;
      HER_RETURN_NOT_OK(GetFloat(&f));
      out->push_back(f);
    }
    return Status::OK();
  }

  Status GetDoubleVec(std::vector<double>* out) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(GetVarint(&n));
    if (n > remaining() / 8) return Truncated("double vec");
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      double d = 0;
      HER_RETURN_NOT_OK(GetDouble(&d));
      out->push_back(d);
    }
    return Status::OK();
  }

  template <typename Int>
  Status GetIntVec(std::vector<Int>* out) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(GetVarint(&n));
    // Each element is at least one varint byte.
    if (n > remaining()) return Truncated("int vec");
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t x = 0;
      HER_RETURN_NOT_OK(GetVarint(&x));
      out->push_back(static_cast<Int>(x));
    }
    return Status::OK();
  }

  Status GetFloatVecs(std::vector<std::vector<float>>* out) {
    uint64_t n = 0;
    HER_RETURN_NOT_OK(GetVarint(&n));
    if (n > remaining()) return Truncated("float matrix");
    out->clear();
    out->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      std::vector<float> row;
      HER_RETURN_NOT_OK(GetFloatVec(&row));
      out->push_back(std::move(row));
    }
    return Status::OK();
  }

  /// Declares how many elements follow; fails before allocation when the
  /// payload cannot possibly hold them (`min_bytes_each` lower bound).
  Status GetCount(uint64_t* out, size_t min_bytes_each = 1) {
    HER_RETURN_NOT_OK(GetVarint(out));
    if (min_bytes_each > 0 && *out > remaining() / min_bytes_each) {
      return Truncated("count");
    }
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::IOError(std::string("bytes: truncated payload reading ") +
                           what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace her

#endif  // HER_COMMON_BYTES_H_
