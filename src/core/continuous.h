// Continuous query attributes under the relaxed (access-policy
// confidentiality) model (paper §9.2).
//
// Instead of one pseudo record per discrete key, the DO signs pseudo
// *regions* with policy Role_∅ for the gaps between consecutive keys:
// (-∞, o₁), (o₁, o₂), …, (o_n, +∞). A range query is answered with the
// matching records plus APS signatures for the intersecting gap regions; an
// equality query on k is the range query [k, k], whose VO is one entry: the
// record, or the one gap that contains k. This discloses the key
// distribution (acceptable once zero-knowledge is relaxed) but makes the ADS
// size proportional to the data instead of the domain.
#ifndef APQA_CORE_CONTINUOUS_H_
#define APQA_CORE_CONTINUOUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "core/app_signature.h"
#include "core/record.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"

namespace apqa::core {

struct ContinuousRecord {
  std::uint64_t key = 0;  // continuous attribute (must be in (0, 2^64-1))
  std::string value;
  Policy policy;
};

// An open interval (lo, hi) known to contain no records. lo == 0 encodes -∞
// and hi == UINT64_MAX encodes +∞.
struct GapRegion {
  std::uint64_t lo = 0, hi = 0;
};

std::vector<std::uint8_t> GapMessage(const GapRegion& gap);
std::vector<std::uint8_t> ContinuousRecordMessage(std::uint64_t key,
                                                  const std::string& value);
std::vector<std::uint8_t> ContinuousRecordMessageFromHash(
    std::uint64_t key, const Digest& value_hash);

class ContinuousAds {
 public:
  struct SignedRecord {
    ContinuousRecord record;
    Signature sig;
  };
  struct SignedGap {
    GapRegion gap;
    Signature sig;  // policy Role_∅
  };

  // Records must have distinct keys in (0, UINT64_MAX); sorted internally.
  static ContinuousAds Build(const VerifyKey& mvk, const SigningKey& sk_do,
                             std::vector<ContinuousRecord> records, Rng* rng);

  const std::vector<SignedRecord>& records() const { return records_; }
  const std::vector<SignedGap>& gaps() const { return gaps_; }
  // Freshness attestation minted at Build (static ADS, epoch stays 0).
  const EpochStamp& stamp() const { return stamp_; }
  std::size_t SerializedSizeBytes() const;

 private:
  std::vector<SignedRecord> records_;
  std::vector<SignedGap> gaps_;
  EpochStamp stamp_;
};

// VO for continuous range queries.
struct ContinuousVo {
  struct ResultEntry {
    std::uint64_t key;
    std::string value;
    Policy policy;
    Signature app_sig;
  };
  struct InaccessibleEntry {
    std::uint64_t key;
    Digest value_hash;
    Signature aps_sig;
  };
  struct GapEntry {
    GapRegion gap;
    Signature aps_sig;
  };
  std::vector<ResultEntry> results;
  std::vector<InaccessibleEntry> inaccessible;
  std::vector<GapEntry> gaps;
  // Freshness attestation of the ADS; checked before any per-entry work.
  EpochStamp stamp;

  std::size_t SerializedSize() const;
  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. DeserializeRaw is serde-layer only.
  static common::Untrusted<ContinuousVo> Deserialize(common::ByteReader* r) {
    return common::Untrusted<ContinuousVo>(DeserializeRaw(r));
  }
  static ContinuousVo DeserializeRaw(common::ByteReader* r);
};

// SP side: range [alpha, beta] (inclusive).
ContinuousVo BuildContinuousRangeVo(const ContinuousAds& ads,
                                    const VerifyKey& mvk, std::uint64_t alpha,
                                    std::uint64_t beta,
                                    const RoleSet& user_roles,
                                    const RoleSet& universe, Rng* rng);

// User side: soundness + completeness (the points and open gaps must tile
// [alpha, beta] exactly). ctx.domain is unused: the key space is u64.
VerifyResult VerifyContinuousRangeVo(const VerifyContext& ctx,
                                     std::uint64_t alpha, std::uint64_t beta,
                                     const ContinuousVo& vo,
                                     std::vector<ContinuousRecord>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyContinuousRangeVo(
    const VerifyContext& ctx, std::uint64_t alpha, std::uint64_t beta,
    const common::Untrusted<ContinuousVo>& vo,
    std::vector<ContinuousRecord>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyContinuousRangeVo(ctx, alpha, beta, vo.Unvalidated(), results);
}

}  // namespace apqa::core

#endif  // APQA_CORE_CONTINUOUS_H_
