// Handling duplicate query keys (paper Appendix E).
//
// Zero-knowledge approach: records sharing a key and a policy are merged
// into a super-record, then a *virtual dimension* is appended to the key so
// all transformed keys are distinct; the standard AP²G-tree machinery runs
// over the extended domain, and query ranges are extended to cover the whole
// virtual dimension.
//
// Non-zero-knowledge approach: duplicate counts are embedded in the APP
// signature messages (hash(o)|hash(v)|dup_num|dup_id). The ADS is a grid
// tree, addressed like the AP²G-tree, whose leaves hold the duplicate
// group. The SP runs the cover walk (WalkCover, core/range_query.h): an
// inaccessible node that meets the range, crossing it or not, is one box
// APS, or one APS per member for a leaf; the verifier checks that all
// dup_ids 0..dup_num-1 of every covered key are present.
#ifndef APQA_CORE_DUPLICATES_H_
#define APQA_CORE_DUPLICATES_H_

#include <map>
#include <string>
#include <vector>

#include "core/grid_tree.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// --- Zero-knowledge path -------------------------------------------------

// Merges records sharing (key, policy) into super-records whose value is a
// length-prefixed concatenation of the member values.
std::vector<Record> MergeSuperRecords(const std::vector<Record>& records);

struct VirtualDimResult {
  std::vector<Record> records;  // keys extended by one trailing coordinate
  Domain extended_domain;
};

// Appends a virtual dimension of 2^vdim_bits values; same-key records get
// distinct random virtual coordinates. Throws if a key has more than
// 2^vdim_bits duplicates.
VirtualDimResult AddVirtualDimension(const Domain& domain,
                                     const std::vector<Record>& records,
                                     int vdim_bits, Rng* rng);

// Extends a query range to cover the whole virtual dimension.
Box ExtendRangeToVirtualDim(const Box& range, const Domain& extended_domain);

// --- Non-zero-knowledge path ---------------------------------------------

// Message with embedded duplicate info: hash(o)|hash(v)|dup_num|dup_id.
std::vector<std::uint8_t> DupRecordMessage(const Point& key,
                                           const std::string& value,
                                           std::uint32_t dup_num,
                                           std::uint32_t dup_id);
std::vector<std::uint8_t> DupRecordMessageFromHash(const Point& key,
                                                   const Digest& value_hash,
                                                   std::uint32_t dup_num,
                                                   std::uint32_t dup_id);

// One member of a leaf's duplicate group, signed over
// DupRecordMessage(key, value, dup_num, dup_id).
struct DupEntry {
  Record record;
  std::uint32_t dup_id = 0;
  Signature sig;
};

struct DupGridNode {
  Box box;
  Policy policy;
  Signature sig;               // internal nodes only
  bool is_leaf = false;
  bool is_pseudo = false;      // leaf with no real records
  std::vector<DupEntry> dups;  // leaf group (size >= 1)
};

// Grid tree whose leaves hold duplicate groups; addressed like the
// AP²G-tree (core/grid_tree.h).
class DupGridTree : public GridLevels<DupGridNode> {
 public:
  using Node = DupGridNode;

  static DupGridTree Build(const VerifyKey& mvk, const SigningKey& sk_do,
                           const Domain& domain,
                           const std::vector<Record>& records, Rng* rng);

  // Freshness attestation minted at Build (static ADS, epoch stays 0).
  const EpochStamp& stamp() const { return stamp_; }
  void SerializedSize(std::size_t* structure_bytes,
                      std::size_t* signature_bytes) const;

 private:
  EpochStamp stamp_;
};

// VO for non-ZK duplicate range queries.
struct DupVo {
  struct DupResultEntry {
    Point key;
    std::string value;
    Policy policy;
    std::uint32_t dup_num, dup_id;
    Signature app_sig;
  };
  struct DupInaccessibleEntry {
    Point key;
    Digest value_hash;
    std::uint32_t dup_num, dup_id;
    Signature aps_sig;
  };
  std::vector<DupResultEntry> results;
  std::vector<DupInaccessibleEntry> inaccessible;
  std::vector<InaccessibleBoxEntry> boxes;
  // Freshness attestation of the ADS; checked before any per-entry work.
  EpochStamp stamp;

  std::size_t SerializedSize() const;
  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. DeserializeRaw is serde-layer only.
  static common::Untrusted<DupVo> Deserialize(common::ByteReader* r) {
    return common::Untrusted<DupVo>(DeserializeRaw(r));
  }
  static DupVo DeserializeRaw(common::ByteReader* r);
};

DupVo BuildDupRangeVo(const DupGridTree& tree, const VerifyKey& mvk,
                      const Box& range, const RoleSet& user_roles,
                      const RoleSet& universe, Rng* rng);

VerifyResult VerifyDupRangeVo(const VerifyContext& ctx, const Box& range,
                              const DupVo& vo, std::vector<Record>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyDupRangeVo(const VerifyContext& ctx,
                                     const Box& range,
                                     const common::Untrusted<DupVo>& vo,
                                     std::vector<Record>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyDupRangeVo(ctx, range, vo.Unvalidated(), results);
}

}  // namespace apqa::core

#endif  // APQA_CORE_DUPLICATES_H_
