// Serialization of field and group elements.
//
// Group points are stored as affine coordinates in canonical (non-Montgomery)
// little-endian limb form with a leading infinity flag. Sizes:
//   Fr  32 bytes, Fp 48 bytes, G1 1+96 bytes, G2 1+192 bytes.
#ifndef APQA_CRYPTO_SERDE_H_
#define APQA_CRYPTO_SERDE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/serde.h"
#include "crypto/curve.h"
#include "crypto/fp12.h"
#include "crypto/mont_accel.h"

namespace apqa::crypto {

// Wire sizes of a group element that is not at infinity (flag + affine
// coordinates); a point at infinity is its one flag byte.
inline constexpr std::size_t kG1Bytes = 1 + 2 * 48;
inline constexpr std::size_t kG2Bytes = 1 + 4 * 48;

void WriteFr(common::ByteWriter* w, const Fr& v);
Fr ReadFr(common::ByteReader* r);

void WriteFp(common::ByteWriter* w, const Fp& v);
Fp ReadFp(common::ByteReader* r);

void WriteG1(common::ByteWriter* w, const G1& p);
// Strict bytes, canonical coordinates, on the curve, and in the
// prime-order subgroup. With a PointAdmission attached to `r` the subgroup
// check is queued there instead of run here.
G1 ReadG1(common::ByteReader* r);

void WriteG2(common::ByteWriter* w, const G2& p);
G2 ReadG2(common::ByteReader* r);

void WriteGT(common::ByteWriter* w, const Fp12& v);
Fp12 ReadGT(common::ByteReader* r);

// The constants accel::G1SubgroupCheckX8 takes for G1 over Fp.
const accel::G1LaneConsts& G1LaneConstants();

// Subgroup verdicts of up to eight affine G1 points on the curve (none at
// infinity): in[i] for pts[i]. One pass of the eight-lane IFMA kernel when
// it is active (lanes it cannot decide take InPrimeOrderSubgroup),
// otherwise InPrimeOrderSubgroup per point.
void G1InSubgroupX8(std::span<const G1> pts, bool* in);

// Index of the first point of `pts` (affine, on the curve, none at
// infinity) outside the prime-order subgroup, or pts.size(). Groups of
// eight run through G1InSubgroupX8; a group too short to pay for a lane
// pass runs the scalar test.
std::size_t FirstOutsideG1Subgroup(std::span<const G1> pts);

// Two-step admission of the G1 points of one decode. While an admission is
// attached to a reader, ReadG1 keeps its byte, canonical and curve checks
// and queues the subgroup check here. When the outermost admission on the
// reader goes out of scope it runs the queue in one batched pass
// (FirstOutsideG1Subgroup) and, if a point fails, flags the reader with
// the error ReadG1 would have raised for it. ReadG1 queues nothing once
// the reader is flagged, so every queued point precedes the reader's first
// error in the input: the failing point replaces that error
// (ByteReader::MarkBadEarlier), and the verdict is the one checking each
// point as it is read gives. Top-level decoders open one at their start;
// an admission opened while another is attached does nothing.
class PointAdmission {
 public:
  explicit PointAdmission(common::ByteReader* r);
  ~PointAdmission();
  PointAdmission(const PointAdmission&) = delete;
  PointAdmission& operator=(const PointAdmission&) = delete;

  void Queue(const G1& p) { g1_.push_back(p); }

 private:
  common::ByteReader* r_;
  bool owner_;
  std::vector<G1> g1_;
};

// Derives an Fr scalar from arbitrary bytes via SHA-256 (255-bit mask then
// reduce; bias is negligible for protocol purposes).
Fr HashToFr(const void* data, std::size_t n);
Fr HashToFr(const std::string& s);

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_SERDE_H_
