// Access-policy-preserving (APP) and access-policy-stripped (APS)
// signatures (Definitions 5.1 and 5.2).
//
// APP: σ = ABS.Sign(sk_DO, hash(o)|hash(v), Υ) for records, or
//      ABS.Sign(sk_DO, hash(gb), p) for AP²G-tree nodes.
// APS: the relaxation of an APP signature to the querying user's super
//      access policy ∨_{a ∈ 𝔸\𝒜} a.
//
// Side channels: the blinding scalars drawn inside ABS.Sign / ABS.Relax are
// taint-typed SecretFr and ride the constant-pattern ladders (crypto/ct.h);
// everything hashed or signed through this header — keys, boxes, value
// hashes, policies — is public VO material.
#ifndef APQA_CORE_APP_SIGNATURE_H_
#define APQA_CORE_APP_SIGNATURE_H_

#include <vector>

#include "abs/abs.h"
#include "core/record.h"
#include "core/verify_result.h"
#include "crypto/sha256.h"

namespace apqa::core {

using abs::Abs;
using abs::Signature;
using abs::SigningKey;
using abs::VerifyKey;
using crypto::Digest;
using crypto::Rng;

// Canonical byte encoding of a query key (little-endian u32 per dimension).
std::vector<std::uint8_t> EncodeKey(const Point& key);
// Canonical byte encoding of a grid box (lo then hi).
std::vector<std::uint8_t> EncodeBox(const Box& box);

// hash(o) | hash(v) — the signed message of a record APP signature.
std::vector<std::uint8_t> RecordMessage(const Point& key,
                                        const std::string& value);
// Same, from a precomputed value hash (the user of an APS signature only
// learns hash(v), never v).
std::vector<std::uint8_t> RecordMessageFromHash(const Point& key,
                                                const Digest& value_hash);
// hash(gb) — the signed message of a grid-node APP signature.
std::vector<std::uint8_t> BoxMessage(const Box& box);

// The super access policy for a user holding `user_roles` within `universe`:
// the OR of every role the user lacks (always includes Role_∅).
policy::RoleSet SuperPolicyRoles(const policy::RoleSet& universe,
                                 const policy::RoleSet& user_roles);

class ThreadPool;

// Everything a user-side verifier needs besides the query and the VO. Every
// Verify*Vo entry takes one. It snapshots `expected_epoch`, so build a fresh
// context per verification (as core::User does) rather than caching one
// across epoch advances — a stale snapshot would accept rolled-back VOs.
struct VerifyContext {
  // The common case: `lacked` is the super-policy set 𝔸 \ 𝒜 of `roles`.
  VerifyContext(const VerifyKey& key, const Domain& dom,
                const policy::RoleSet& user_roles,
                const policy::RoleSet& universe)
      : mvk(key),
        domain(dom),
        roles(user_roles),
        lacked(SuperPolicyRoles(universe, user_roles)) {}

  const VerifyKey& mvk;
  Domain domain;
  policy::RoleSet roles;
  // The relaxation target APS signatures verify against (OR of these
  // roles). Hierarchical role assignment (§8.1) replaces it with the
  // reduced lacked set.
  policy::RoleSet lacked;
  // Minimum acceptable ADS epoch (see CheckFreshness).
  std::uint64_t expected_epoch = 0;
  // Fans the signature checks out; diagnostics are pool-independent.
  ThreadPool* pool = nullptr;

  // ∨_{a ∈ lacked} a — the predicate every APS signature must satisfy.
  Policy SuperPolicy() const { return Policy::OrOfRoles(lacked); }
};

// Queues an APP signature on `batch`: on RecordMessage under the record's
// policy for a record (a pseudo record has policy Role_∅ and a random
// value supplied by the caller), on BoxMessage under the OR of the
// children's policies for a grid node. Throws std::logic_error when sk_do
// does not cover the policy. An APP signature is always minted at epoch 0,
// at build and on every re-sign: its statement (key, value hash and
// policy, or box and policy) carries no time, so the epoch in an APS
// cannot date a write or a policy change under it (DESIGN.md, "Freshness
// & dynamic data").
void SignApp(abs::SignBatch* batch, const VerifyKey& mvk,
             const SigningKey& sk_do, const std::vector<std::uint8_t>& msg,
             const Policy& predicate, Rng* rng);

// Queues the APS signature of an inaccessible entry: `app`, the APP
// signature on `msg` under `predicate`, relaxed to ∨ lacked. Throws
// std::logic_error when it does not relax (`predicate` holds without the
// lacked roles).
void RelaxApp(abs::SignBatch* batch, const VerifyKey& mvk,
              const Signature& app, const Policy& predicate,
              const std::vector<std::uint8_t>& msg,
              const policy::RoleSet& lacked, Rng* rng);

// ---------------------------------------------------------------------------
// Epoch freshness attestation.
//
// Node signatures (leaves and boxes alike) bind epoch 0, so they carry no
// time. Whole-VO freshness therefore rides on a separate DO attestation: an
// ABS signature (under the always-derivable Role_∅ policy) over the pair
// (current epoch, set-hash digest of the entire signature multiset). Every
// VO carries the stamp; verifiers check its fields against the caller's
// expected_epoch *before* any per-entry work, so a replayed VO fails with
// kStaleEpoch rather than a generic signature failure.

struct EpochStamp {
  std::uint64_t epoch = 0;
  // Hand-built VOs in tests may omit the attestation; builders always fill
  // it. An unattested stamp only passes CheckFreshness at expected_epoch 0.
  bool attested = false;
  Digest ads_digest{};
  Signature attestation;

  void Serialize(common::ByteWriter* w) const;
  // Tainted wire entry; a standalone stamp is only trusted after
  // CheckFreshness. DeserializeRaw is for the composite VO deserializers
  // (every VO embeds a stamp) — serde-layer only in src/ (lint R10).
  static common::Untrusted<EpochStamp> Deserialize(common::ByteReader* r) {
    return common::Untrusted<EpochStamp>(DeserializeRaw(r));
  }
  static EpochStamp DeserializeRaw(common::ByteReader* r);

  // epoch (8) + attested flag (1); digest + attestation only when attested.
  static constexpr std::size_t kMinSerializedSize = 8 + 1;
};

// Domain-separated message of the epoch attestation:
//   "APQA/epoch/v1" || epoch_le8 || ads_digest.
std::vector<std::uint8_t> EpochAttestationMessage(std::uint64_t epoch,
                                                  const Digest& ads_digest);

// The claim-predicate of epoch attestations: the single pseudo-role Role_∅,
// which every DO signing key covers and every super policy includes.
Policy AttestationPolicy();

// Signs a fresh attestation for (epoch, ads_digest). Throws
// std::logic_error when sk_do does not cover Role_∅.
EpochStamp MakeEpochStamp(const VerifyKey& mvk, const SigningKey& sk_do,
                          std::uint64_t epoch, const Digest& ads_digest,
                          Rng* rng);

// The freshness check of one stamp. `expected_epoch` is the *minimum*
// acceptable epoch (newer stamps pass — the client may lag behind the DO).
// Rejections, in this order:
//   * stamp.epoch < expected_epoch                  -> kStaleEpoch
//   * unattested stamp at expected_epoch > 0        -> kStaleEpoch
//   * attestation minted at a different epoch       -> kStaleEpoch
//   * attestation fails ABS verification            -> AttestationRejected()
// The first three are CheckStampFields. The shared verify driver
// (core/parallel_verify.h) runs CheckStampFields over every stamp before
// anything else and queues each attestation as a leading job of the VO's
// signature batch; a standalone stamp (the SP's snapshot gate) takes the
// whole check here.
VerifyResult CheckFreshness(const VerifyKey& mvk, const EpochStamp& stamp,
                            std::uint64_t expected_epoch);
VerifyResult CheckStampFields(const EpochStamp& stamp,
                              std::uint64_t expected_epoch);
VerifyResult AttestationRejected();

}  // namespace apqa::core

#endif  // APQA_CORE_APP_SIGNATURE_H_
