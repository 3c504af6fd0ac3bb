// AP²kd-tree: the access-policy-preserving k-d tree for the relaxed
// (access-policy confidentiality) model (paper §9.1, Algorithm 7).
//
// Unlike the AP²G-tree, the structure adapts to the data: leaves are
// records, each covering the region of space it was split into, so empty
// space costs nothing. Splits are chosen to minimize the number of DNF
// clauses shared between the two half-spaces (maximizing the chance that an
// entire half-space is inaccessible and prunable); beyond depth log2(S) the
// build falls back to midpoint (grid) splits to bound imbalance.
//
// Implementation note: AP²kd-tree leaf APP signatures bind the leaf's region
// in addition to hash(o)|hash(v) — without this, coverage verification could
// not attribute a region to an accessible leaf. Internal-node signatures are
// identical to AP²G-tree nodes (hash(gb) under the children's OR policy).
#ifndef APQA_CORE_KD_TREE_H_
#define APQA_CORE_KD_TREE_H_

#include <string>
#include <vector>

#include "core/app_signature.h"
#include "core/record.h"
#include "core/thread_pool.h"
#include "core/verify_result.h"
#include "core/vo.h"

namespace apqa::core {

// Message bound by a kd-tree leaf signature: hash(gb) | hash(o) | hash(v).
std::vector<std::uint8_t> KdLeafMessage(const Box& region, const Point& key,
                                        const std::string& value);
std::vector<std::uint8_t> KdLeafMessageFromHash(const Box& region,
                                                const Point& key,
                                                const Digest& value_hash);

class KdTree {
 public:
  struct Node {
    Box region;
    Policy policy;
    Signature sig;
    bool is_leaf = false;
    bool is_pseudo = false;
    Record record;         // leaf payload
    int left = -1, right = -1;
  };

  static KdTree Build(const VerifyKey& mvk, const SigningKey& sk_do,
                      const Domain& domain, const std::vector<Record>& records,
                      Rng* rng);

  const Domain& domain() const { return domain_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  int root() const { return root_; }
  // Freshness attestation minted at Build. The kd-tree is static (no
  // dynamic maintenance under the relaxed model), so the epoch stays 0.
  const EpochStamp& stamp() const { return stamp_; }
  std::size_t LeafCount() const;
  std::size_t MaxDepth() const;
  void SerializedSize(std::size_t* structure_bytes,
                      std::size_t* signature_bytes) const;

  // Algorithm 7: split position (1-based count of policies in the left
  // half) minimizing shared DNF clause sets. Exposed for unit testing.
  static std::size_t SplitPosition(const std::vector<Policy>& policies);

 private:
  // Lays out the subtree of `region` and queues its signatures on `batch`,
  // appending each signed node's index to `queued` in queue order.
  int BuildNode(const VerifyKey& mvk, const SigningKey& sk_do, const Box& region,
                std::vector<Record> records, int depth, int max_policy_depth,
                Rng* rng, abs::SignBatch* batch, std::vector<int>* queued);

  Domain domain_;
  std::vector<Node> nodes_;
  int root_ = -1;
  EpochStamp stamp_;
};

// Leaf result entry for kd VOs: covers the leaf's whole region.
struct KdResultEntry {
  Box region;
  Point key;
  std::string value;
  Policy policy;
  Signature app_sig;
};

// Inaccessible leaf: region + key + hash(v) + APS.
struct KdInaccessibleLeafEntry {
  Box region;
  Point key;
  Digest value_hash;
  Signature aps_sig;
};

struct KdVo {
  std::vector<KdResultEntry> results;
  std::vector<KdInaccessibleLeafEntry> leaves;
  std::vector<InaccessibleBoxEntry> boxes;
  // Freshness attestation of the ADS; checked before any per-entry work.
  EpochStamp stamp;

  std::size_t EntryCount() const {
    return results.size() + leaves.size() + boxes.size();
  }
  std::size_t SerializedSize() const;
  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. DeserializeRaw is serde-layer only.
  static common::Untrusted<KdVo> Deserialize(common::ByteReader* r) {
    return common::Untrusted<KdVo>(DeserializeRaw(r));
  }
  static KdVo DeserializeRaw(common::ByteReader* r);
};

// SP side: Algorithm 3 adapted to the kd structure, by the cover walk
// (WalkCover, core/range_query.h).
KdVo BuildKdRangeVo(const KdTree& tree, const VerifyKey& mvk, const Box& range,
                    const RoleSet& user_roles, const RoleSet& universe,
                    Rng* rng);

// User side: soundness + completeness.
VerifyResult VerifyKdRangeVo(const VerifyContext& ctx, const Box& range,
                             const KdVo& vo, std::vector<Record>* results);

// Declassification gate for wire-decoded VOs: verification is the trust
// boundary, so the tainted value feeds the checked path directly.
inline VerifyResult VerifyKdRangeVo(const VerifyContext& ctx,
                                    const Box& range,
                                    const common::Untrusted<KdVo>& vo,
                                    std::vector<Record>* results) {
  // untrusted-ok: Verify*Vo is the declassification gate for SP bytes.
  return VerifyKdRangeVo(ctx, range, vo.Unvalidated(), results);
}

}  // namespace apqa::core

#endif  // APQA_CORE_KD_TREE_H_
