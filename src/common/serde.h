// Minimal binary serialization used to materialize ADS entries and
// verification objects (VOs). VO byte size is one of the paper's reported
// metrics, so every protocol message in this library can be serialized.
//
// The reader side is the system's adversarial-input boundary: VOs come from
// an untrusted service provider, so every Deserialize must be *total* —
// arbitrary bytes either parse into a structurally valid object or leave the
// reader in a flagged error state. The reader records the first wire-level
// error (with a coarse classification) so verifiers can report *why* an
// input was rejected instead of a bare false.
#ifndef APQA_COMMON_SERDE_H_
#define APQA_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace apqa::crypto {
class PointAdmission;  // crypto/serde.h
}  // namespace apqa::crypto

namespace apqa::common {

// Compile-time taint marker for data decoded off the untrusted wire — the
// mirror image of crypto::Secret<T> (PR 3). Every top-level deserializer on
// the SP→user / DO→SP path (frame decode, VO / AdsDelta / EpochStamp
// payloads) returns Untrusted<T>; the payload only escapes through
//
//   * a Verify*Vo / Validate* overload that takes Untrusted<T> directly
//     (the declassification gates — verification IS the trust boundary), or
//   * an explicit Unvalidated() / ReleaseUnvalidated() call, which lint
//     rule R9 requires to carry an `// untrusted-ok: <reason>` comment so
//     `scripts/lint.py --list-untrusted` is a complete audit of every point
//     where unverified bytes leave the type system.
//
// Everything else — implicit conversion, dereference, comparison against
// the naked type — is a deleted overload, so using a decoded value without
// going through a gate is a compile error naming this discipline.
template <typename T>
class [[nodiscard]] Untrusted {
 public:
  Untrusted() = default;
  explicit Untrusted(T value) : value_(std::move(value)) {}

  // The only escapes. In src/ both require an `// untrusted-ok:` reason
  // (lint R8); tests may call them freely — a test IS its own oracle.
  const T& Unvalidated() const& { return value_; }
  T ReleaseUnvalidated() && { return std::move(value_); }

  // Deleted: unwrapping must be loud, not incidental.
  operator T() const = delete;             // NOLINT(google-explicit-...)
  const T& operator*() const = delete;
  const T* operator->() const = delete;
  template <typename U>
  bool operator==(const U&) const = delete;
  template <typename U>
  bool operator!=(const U&) const = delete;

 private:
  T value_;
};

class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(v); }
  void PutU32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void PutU64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void PutBytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }
  void PutString(const std::string& s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }
  // A counted list: the u32 element count, then `put(e)` for each element.
  // ByteReader::GetList reads it back.
  template <typename List, typename Put>
  void PutList(const List& list, Put&& put) {
    PutU32(static_cast<std::uint32_t>(list.size()));
    for (const auto& e : list) put(e);
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Coarse classification of why a read failed. Deserializers set these via
// MarkBad; the verification layer maps them onto VerifyResult codes.
// [[nodiscard]] at the type level: every function returning a WireError is
// reporting a wire-boundary failure the caller must route somewhere.
enum class [[nodiscard]] WireError : std::uint8_t {
  kNone = 0,
  kTruncated,          // read past the end of the buffer
  kLengthOverflow,     // declared count/length exceeds the remaining bytes
  kUnknownTag,         // unrecognized discriminator byte
  kBadPolicy,          // policy text failed to parse or exceeds caps
  kPointNotOnCurve,    // group point fails the curve equation
  kPointNotInSubgroup, // on curve but outside the prime-order subgroup
  kNonCanonical,       // non-canonical encoding (unreduced field element...)
  kMalformed,          // other structural violation
};

inline const char* WireErrorName(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kTruncated: return "truncated";
    case WireError::kLengthOverflow: return "length-overflow";
    case WireError::kUnknownTag: return "unknown-tag";
    case WireError::kBadPolicy: return "bad-policy";
    case WireError::kPointNotOnCurve: return "point-not-on-curve";
    case WireError::kPointNotInSubgroup: return "point-not-in-subgroup";
    case WireError::kNonCanonical: return "non-canonical";
    case WireError::kMalformed: return "malformed";
  }
  return "unknown";
}

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t n) : buf_(data), size_(n) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  // Lets deserializers flag semantic errors. The first error (and its
  // detail, a static string) is kept; later errors are usually cascades.
  void MarkBad(WireError e = WireError::kMalformed,
               const char* detail = nullptr) {
    if (ok_) {
      error_ = e;
      detail_ = detail;
    }
    ok_ = false;
  }
  // Flags an error that a deferred check found earlier in the input than
  // anything flagged so far, so it replaces the recorded error.
  // crypto::PointAdmission reports its batched subgroup checks this way:
  // every point it queued was read before the reader's first error.
  void MarkBadEarlier(WireError e, const char* detail) {
    ok_ = false;
    error_ = e;
    detail_ = detail;
  }
  WireError error() const { return error_; }
  // May be null; points to a static string describing the first error.
  const char* error_detail() const { return detail_; }
  std::size_t Remaining() const { return size_ - pos_; }

  // The subgroup-check batch that crypto::ReadG1 queues into, or null when
  // each point is checked as it is read (crypto::PointAdmission attaches
  // and detaches it).
  crypto::PointAdmission* admission() const { return admission_; }
  void set_admission(crypto::PointAdmission* a) { admission_ = a; }

  // Guards element-count fields read off the wire: every element of the
  // announced collection occupies at least `min_elem_bytes`, so a count
  // that cannot fit in the remaining bytes is corrupt. Returns false (and
  // flags the reader) on a hostile count, so a 4-byte length field can
  // never drive allocation or loop iterations beyond the input size.
  bool CheckCount(std::uint64_t count, std::size_t min_elem_bytes) {
    if (count * min_elem_bytes > Remaining()) {  // count < 2^32, no overflow
      MarkBad(WireError::kLengthOverflow, "element count exceeds input size");
      return false;
    }
    return true;
  }

  std::uint8_t GetU8() {
    std::uint8_t v = 0;
    Get(&v, 1);
    return v;
  }
  std::uint32_t GetU32() {
    std::uint8_t b[4] = {};
    Get(b, 4);
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  std::uint64_t GetU64() {
    std::uint8_t b[8] = {};
    Get(b, 8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  void Get(void* out, std::size_t n) {
    if (n > size_ - pos_) {
      MarkBad(WireError::kTruncated, "input truncated");
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, buf_ + pos_, n);
    pos_ += n;
  }
  // A counted list as PutList writes it: the u32 count, then one `get()`
  // per element, appended to `out`. Every element takes at least
  // `min_elem_bytes` on the wire, so the count is clamped (CheckCount)
  // before anything is reserved; the element loop stops at the first error.
  template <typename T, typename Get>
  void GetList(std::vector<T>* out, std::size_t min_elem_bytes, Get&& get) {
    std::uint32_t n = GetU32();
    if (!CheckCount(n, min_elem_bytes)) return;
    out->reserve(n);
    for (std::uint32_t i = 0; i < n && ok(); ++i) out->push_back(get());
  }
  std::string GetString() {
    std::uint32_t n = GetU32();
    if (n > size_ - pos_) {
      MarkBad(WireError::kLengthOverflow, "string length exceeds input size");
      return {};
    }
    std::string s(reinterpret_cast<const char*>(buf_ + pos_), n);
    pos_ += n;
    return s;
  }

 private:
  const std::uint8_t* buf_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  WireError error_ = WireError::kNone;
  const char* detail_ = nullptr;
  crypto::PointAdmission* admission_ = nullptr;
};

}  // namespace apqa::common

#endif  // APQA_COMMON_SERDE_H_
