#include "core/app_signature.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/serde.h"

namespace apqa::core {

using crypto::Sha256;

std::vector<std::uint8_t> EncodeKey(const Point& key) {
  std::vector<std::uint8_t> out;
  out.reserve(4 * key.size());
  for (std::uint32_t c : key) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(c >> (8 * i)));
    }
  }
  return out;
}

std::vector<std::uint8_t> EncodeBox(const Box& box) {
  std::vector<std::uint8_t> out = EncodeKey(box.lo);
  std::vector<std::uint8_t> hi = EncodeKey(box.hi);
  out.insert(out.end(), hi.begin(), hi.end());
  return out;
}

std::vector<std::uint8_t> RecordMessage(const Point& key,
                                        const std::string& value) {
  return RecordMessageFromHash(key,
                               Sha256::Hash(value.data(), value.size()));
}

std::vector<std::uint8_t> RecordMessageFromHash(const Point& key,
                                                const Digest& value_hash) {
  std::vector<std::uint8_t> enc = EncodeKey(key);
  Digest key_hash = Sha256::Hash(enc.data(), enc.size());
  // Sized up front; insert()'s reallocation path trips a GCC 12
  // -Warray-bounds false positive on the fixed-size Digest source.
  std::vector<std::uint8_t> msg(key_hash.size() + value_hash.size());
  auto mid = std::copy(key_hash.begin(), key_hash.end(), msg.begin());
  std::copy(value_hash.begin(), value_hash.end(), mid);
  return msg;
}

std::vector<std::uint8_t> BoxMessage(const Box& box) {
  std::vector<std::uint8_t> enc = EncodeBox(box);
  Digest h = Sha256::Hash(enc.data(), enc.size());
  return std::vector<std::uint8_t>(h.begin(), h.end());
}

policy::RoleSet SuperPolicyRoles(const policy::RoleSet& universe,
                                 const policy::RoleSet& user_roles) {
  policy::RoleSet lacked;
  for (const auto& r : universe) {
    if (!user_roles.count(r)) lacked.insert(r);
  }
  lacked.insert(kPseudoRole);
  return lacked;
}

void SignApp(abs::SignBatch* batch, const VerifyKey& mvk,
             const SigningKey& sk_do, const std::vector<std::uint8_t>& msg,
             const Policy& predicate, Rng* rng) {
  if (!batch->Sign(mvk, sk_do, msg, predicate, rng, /*epoch=*/0)) {
    throw std::logic_error("DO signing key does not cover a signed policy");
  }
}

void RelaxApp(abs::SignBatch* batch, const VerifyKey& mvk,
              const Signature& app, const Policy& predicate,
              const std::vector<std::uint8_t>& msg,
              const policy::RoleSet& lacked, Rng* rng) {
  if (!batch->Relax(mvk, app, predicate, msg, lacked, rng)) {
    throw std::logic_error("node signature does not relax to the lacked set");
  }
}

void EpochStamp::Serialize(common::ByteWriter* w) const {
  w->PutU64(epoch);
  w->PutU8(attested ? 1 : 0);
  if (attested) {
    w->PutBytes(ads_digest.data(), ads_digest.size());
    attestation.Serialize(w);
  }
}

EpochStamp EpochStamp::DeserializeRaw(common::ByteReader* r) {
  crypto::PointAdmission admit(r);
  EpochStamp s;
  s.epoch = r->GetU64();
  std::uint8_t flag = r->GetU8();
  if (flag > 1) {
    r->MarkBad(common::WireError::kMalformed, "bad epoch-stamp flag");
    return s;
  }
  s.attested = flag == 1;
  if (s.attested) {
    r->Get(s.ads_digest.data(), s.ads_digest.size());
    s.attestation = Signature::Deserialize(r);
  }
  return s;
}

std::vector<std::uint8_t> EpochAttestationMessage(std::uint64_t epoch,
                                                  const Digest& ads_digest) {
  static constexpr char kTag[] = "APQA/epoch/v1";
  std::vector<std::uint8_t> msg;
  msg.reserve(sizeof(kTag) - 1 + 8 + ads_digest.size());
  msg.insert(msg.end(), kTag, kTag + sizeof(kTag) - 1);
  for (int i = 0; i < 8; ++i) {
    msg.push_back(static_cast<std::uint8_t>(epoch >> (8 * i)));
  }
  msg.insert(msg.end(), ads_digest.begin(), ads_digest.end());
  return msg;
}

Policy AttestationPolicy() { return Policy::Var(kPseudoRole); }

EpochStamp MakeEpochStamp(const VerifyKey& mvk, const SigningKey& sk_do,
                          std::uint64_t epoch, const Digest& ads_digest,
                          Rng* rng) {
  auto sig = Abs::Sign(mvk, sk_do, EpochAttestationMessage(epoch, ads_digest),
                       AttestationPolicy(), rng, epoch);
  if (!sig.has_value()) {
    throw std::logic_error("DO signing key does not cover Role_NULL");
  }
  EpochStamp stamp;
  stamp.epoch = epoch;
  stamp.attested = true;
  stamp.ads_digest = ads_digest;
  stamp.attestation = std::move(*sig);
  return stamp;
}

VerifyResult CheckStampFields(const EpochStamp& stamp,
                              std::uint64_t expected_epoch) {
  if (stamp.epoch < expected_epoch) {
    return VerifyResult::Fail(
        VerifyCode::kStaleEpoch,
        "VO epoch " + std::to_string(stamp.epoch) +
            " older than expected epoch " + std::to_string(expected_epoch));
  }
  // At expected_epoch 0 an unattested stamp is allowed (static builds and
  // hand-assembled test VOs); once the caller demands freshness, or the SP
  // claims a stamp at all, the attestation must be present and check out.
  if (!stamp.attested) {
    if (expected_epoch == 0) return VerifyResult::Ok();
    return VerifyResult::Fail(VerifyCode::kStaleEpoch,
                              "freshness attestation missing");
  }
  if (stamp.attestation.epoch != stamp.epoch) {
    return VerifyResult::Fail(
        VerifyCode::kStaleEpoch,
        "attestation minted at epoch " +
            std::to_string(stamp.attestation.epoch) + ", stamp claims " +
            std::to_string(stamp.epoch));
  }
  return VerifyResult::Ok();
}

VerifyResult AttestationRejected() {
  return VerifyResult::Fail(VerifyCode::kBadSignature,
                            "epoch attestation rejected");
}

VerifyResult CheckFreshness(const VerifyKey& mvk, const EpochStamp& stamp,
                            std::uint64_t expected_epoch) {
  if (VerifyResult f = CheckStampFields(stamp, expected_epoch); !f.ok()) {
    return f;
  }
  if (stamp.attested &&
      !Abs::Verify(mvk, EpochAttestationMessage(stamp.epoch, stamp.ads_digest),
                   AttestationPolicy(), stamp.attestation)) {
    return AttestationRejected();
  }
  return VerifyResult::Ok();
}

}  // namespace apqa::core
