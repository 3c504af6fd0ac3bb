// Dynamic ADS maintenance: the DO→SP update delta.
//
// An `AdsDelta` carries the grid nodes the DataOwner re-signed for one
// update batch: every touched leaf, plus each internal node whose OR-policy
// changed (at most depth per key). Each patch replaces a node's policy,
// signature, and (for leaves) record payload. The delta also carries the
// epoch transition it performs and the fresh `EpochStamp` attestation over
// the post-update signature multiset. `ApplyDelta` accepts any DO-attested
// patch set: it checks addressing and the stamp digest, not which nodes are
// present. A `SignedAdsUpdate` wraps the delta in a DO ABS signature over
// its canonical bytes so the SP (and anyone relaying frames) cannot forge
// or tamper with updates.
//
// Deltas travel over the untrusted network, so deserialization is total and
// strict in the PR 2 sense: hostile counts are clamped against the remaining
// input before any allocation, unknown discriminators mark the reader bad,
// and a failed read never leaves a half-applied structure.
#ifndef APQA_CORE_ADS_UPDATE_H_
#define APQA_CORE_ADS_UPDATE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/serde.h"
#include "core/app_signature.h"
#include "core/record.h"

namespace apqa::core {

// One logical mutation in a DO update batch.
struct AdsUpdateOp {
  enum class Kind : std::uint8_t {
    kUpsert = 1,  // insert a record, or overwrite value/policy at its key
    kDelete = 2,  // revert the key's unit cell to a pseudo record
  };
  Kind kind = Kind::kUpsert;
  Record record;  // for kDelete only `record.key` is consulted
};

// Replacement state for a single grid node, addressed by (level, index).
struct NodePatch {
  std::uint32_t level = 0;
  std::uint64_t index = 0;  // row-major within the level
  // 0 = internal node, 1 = leaf with a real record, 2 = pseudo leaf.
  std::uint8_t leaf_kind = 0;
  Policy policy;
  Signature sig;
  std::string value;  // leaf payload (leaf_kind != 0 only)

  void Serialize(common::ByteWriter* w) const;
  static NodePatch Deserialize(common::ByteReader* r);

  // level (4) + index (8) + leaf_kind (1) + policy length prefix (4) +
  // minimal signature — the per-patch floor used to clamp hostile counts.
  static constexpr std::size_t kMinSerializedSize =
      4 + 8 + 1 + 4 + Signature::kMinSerializedSize;
};

// The epoch-N → epoch-N+1 state transition, exactly as the SP must apply it.
struct AdsDelta {
  std::uint64_t from_epoch = 0;
  std::uint64_t to_epoch = 0;
  std::vector<NodePatch> nodes;
  EpochStamp stamp;  // attestation for (to_epoch, post-update digest)

  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; see core/vo.h. DeserializeRaw is serde-layer only.
  static common::Untrusted<AdsDelta> Deserialize(common::ByteReader* r) {
    return common::Untrusted<AdsDelta>(DeserializeRaw(r));
  }
  static AdsDelta DeserializeRaw(common::ByteReader* r);
};

// Delta plus the DO's authentication signature over its canonical bytes.
struct SignedAdsUpdate {
  AdsDelta delta;
  Signature auth;

  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry: updates arrive over the untrusted network and only
  // escape through ServiceProvider::ApplyAdsUpdate's validate-then-apply
  // gate (or an audited Unvalidated() call, lint R9).
  static common::Untrusted<SignedAdsUpdate> Deserialize(
      common::ByteReader* r) {
    return common::Untrusted<SignedAdsUpdate>(DeserializeRaw(r));
  }
  static SignedAdsUpdate DeserializeRaw(common::ByteReader* r);
};

// Domain-separated message the DO authentication signature covers:
//   "APQA/ads-update/v1" || SHA-256(delta bytes).
std::vector<std::uint8_t> AdsUpdateMessage(const AdsDelta& delta);

// Signs `delta` with the DO key (under the Role_∅ attestation policy, at
// epoch delta.to_epoch). Returns nullopt iff the key lacks Role_∅.
std::optional<SignedAdsUpdate> SignAdsUpdate(const VerifyKey& mvk,
                                             const SigningKey& sk_do,
                                             AdsDelta delta, Rng* rng);

// SP-side authenticity gate: the update really transitions to the epoch its
// auth signature was minted at, and the signature verifies under mvk.
bool VerifyAdsUpdateAuth(const VerifyKey& mvk, const SignedAdsUpdate& update);

// Outcome of GridTree::ApplyDelta (SP side).
enum class ApplyStatus : std::uint8_t {
  kApplied = 0,         // state advanced from_epoch -> to_epoch
  kAlreadyApplied = 1,  // to_epoch <= current epoch: duplicate/retried frame
  kEpochGap = 2,        // from_epoch != current epoch: a delta was missed
  kBadPatch = 3,        // patch addresses / digest cross-check rejected
};

const char* ApplyStatusName(ApplyStatus status);

}  // namespace apqa::core

#endif  // APQA_CORE_ADS_UPDATE_H_
