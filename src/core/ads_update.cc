#include "core/ads_update.h"

#include <utility>

#include "crypto/serde.h"

namespace apqa::core {

using crypto::Sha256;

void NodePatch::Serialize(common::ByteWriter* w) const {
  w->PutU32(level);
  w->PutU64(index);
  w->PutU8(leaf_kind);
  w->PutString(policy.ToString());
  sig.Serialize(w);
  if (leaf_kind != 0) w->PutString(value);
}

NodePatch NodePatch::Deserialize(common::ByteReader* r) {
  NodePatch p;
  p.level = r->GetU32();
  p.index = r->GetU64();
  p.leaf_kind = r->GetU8();
  if (p.leaf_kind > 2) {
    r->MarkBad(common::WireError::kMalformed, "bad node-patch leaf kind");
    return p;
  }
  auto parsed = Policy::TryParse(r->GetString());
  if (!parsed.has_value()) {
    r->MarkBad(common::WireError::kBadPolicy, "node-patch policy rejected");
    return p;
  }
  p.policy = std::move(*parsed);
  p.sig = Signature::Deserialize(r);
  if (p.leaf_kind != 0) p.value = r->GetString();
  return p;
}

void AdsDelta::Serialize(common::ByteWriter* w) const {
  w->PutU64(from_epoch);
  w->PutU64(to_epoch);
  w->PutList(nodes, [w](const NodePatch& p) { p.Serialize(w); });
  stamp.Serialize(w);
}

AdsDelta AdsDelta::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  AdsDelta d;
  d.from_epoch = r->GetU64();
  d.to_epoch = r->GetU64();
  r->GetList(&d.nodes, NodePatch::kMinSerializedSize,
             [r] { return NodePatch::Deserialize(r); });
  d.stamp = EpochStamp::DeserializeRaw(r);
  return d;
}

void SignedAdsUpdate::Serialize(common::ByteWriter* w) const {
  delta.Serialize(w);
  auth.Serialize(w);
}

SignedAdsUpdate SignedAdsUpdate::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  SignedAdsUpdate u;
  u.delta = AdsDelta::DeserializeRaw(r);
  u.auth = Signature::Deserialize(r);
  return u;
}

std::vector<std::uint8_t> AdsUpdateMessage(const AdsDelta& delta) {
  static constexpr char kTag[] = "APQA/ads-update/v1";
  common::ByteWriter bytes;
  delta.Serialize(&bytes);
  crypto::Digest h = Sha256::Hash(bytes.data().data(), bytes.data().size());
  std::vector<std::uint8_t> msg;
  msg.reserve(sizeof(kTag) - 1 + h.size());
  msg.insert(msg.end(), kTag, kTag + sizeof(kTag) - 1);
  msg.insert(msg.end(), h.begin(), h.end());
  return msg;
}

std::optional<SignedAdsUpdate> SignAdsUpdate(const VerifyKey& mvk,
                                             const SigningKey& sk_do,
                                             AdsDelta delta, Rng* rng) {
  auto sig = Abs::Sign(mvk, sk_do, AdsUpdateMessage(delta),
                       AttestationPolicy(), rng, delta.to_epoch);
  if (!sig.has_value()) return std::nullopt;
  SignedAdsUpdate out;
  out.delta = std::move(delta);
  out.auth = std::move(*sig);
  return out;
}

bool VerifyAdsUpdateAuth(const VerifyKey& mvk, const SignedAdsUpdate& update) {
  // The auth signature must be minted at the epoch the delta claims to
  // produce — an attacker cannot re-badge an old authenticated delta as a
  // different transition without re-hashing the (changed) delta bytes.
  if (update.auth.epoch != update.delta.to_epoch) return false;
  return Abs::Verify(mvk, AdsUpdateMessage(update.delta), AttestationPolicy(),
                     update.auth);
}

const char* ApplyStatusName(ApplyStatus status) {
  switch (status) {
    case ApplyStatus::kApplied: return "applied";
    case ApplyStatus::kAlreadyApplied: return "already-applied";
    case ApplyStatus::kEpochGap: return "epoch-gap";
    case ApplyStatus::kBadPatch: return "bad-patch";
  }
  return "unknown";
}

}  // namespace apqa::core
