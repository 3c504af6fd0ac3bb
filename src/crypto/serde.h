// Serialization of field and group elements.
//
// Group points are stored as affine coordinates in canonical (non-Montgomery)
// little-endian limb form with a leading infinity flag. Sizes:
//   Fr  32 bytes, Fp 48 bytes, G1 1+96 bytes, G2 1+192 bytes.
#ifndef APQA_CRYPTO_SERDE_H_
#define APQA_CRYPTO_SERDE_H_

#include "common/serde.h"
#include "crypto/curve.h"
#include "crypto/fp12.h"

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
G1 ReadG1(common::ByteReader* r);

void WriteG2(common::ByteWriter* w, const G2& p);
G2 ReadG2(common::ByteReader* r);

void WriteGT(common::ByteWriter* w, const Fp12& v);
Fp12 ReadGT(common::ByteReader* r);

// Derives an Fr scalar from arbitrary bytes via SHA-256 (255-bit mask then
// reduce; bias is negligible for protocol purposes).
Fr HashToFr(const void* data, std::size_t n);
Fr HashToFr(const std::string& s);

}  // namespace apqa::crypto

#endif  // APQA_CRYPTO_SERDE_H_
