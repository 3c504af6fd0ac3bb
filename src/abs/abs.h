// Attribute-based signatures with predicate relaxation (paper §5.2).
//
// A variant of the Maji–Prabhakaran–Rosulek practical ABS instantiation in
// which the service provider, holding only a signature, can *relax* its
// claim-predicate Υ to a disjunction ∨_{a∈𝒜′} a — provided Υ(𝔸\𝒜′)=0 — and
// re-randomize, yielding a signature distributed identically to a fresh one
// (perfect privacy). This is the primitive behind APP → APS signature
// derivation.
//
// Groups: 𝔾 = G1, ℍ = G2 of BLS12-381; messages are arbitrary byte strings.
#ifndef APQA_ABS_ABS_H_
#define APQA_ABS_ABS_H_

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "crypto/ct_batch.h"
#include "crypto/msm.h"
#include "crypto/pairing.h"
#include "crypto/pairing_prepared.h"
#include "crypto/rng.h"
#include "policy/msp.h"
#include "policy/policy.h"

namespace apqa::abs {

using crypto::Fr;
using crypto::G1;
using crypto::G2;
using crypto::Rng;
using crypto::SecretFr;
using policy::Policy;
using policy::RoleSet;

// Master verification key mvk = (g, h0, h, A0, A, B, C).
struct VerifyKey {
  G1 g, c;
  G2 h0, h, a0, a, b;

  void Serialize(common::ByteWriter* w) const;
  static VerifyKey Deserialize(common::ByteReader* r);

  // Fixed-base tables for the key components that every sign/relax/verify
  // multiplies: G = g, C = c over G1 and A = h^a, B = h^b over G2 — plus
  // prepared-pairing line tables for the fixed G2 pairing inputs h0/h/a0
  // and A/B (the batch verifier folds every row base A + u*B onto those
  // two), so verification never redoes their Miller-loop G2 arithmetic.
  // Built lazily on first use (or by calling precomp() to warm a key read
  // off the wire), immutable afterwards, and shared by copies taken since.
  struct Precomp {
    crypto::FixedBaseTable<crypto::Fp> g_tab, c_tab;
    crypto::FixedBaseTable<crypto::Fp2> a_tab, b_tab;
    crypto::G2Prepared h0_prep, h_prep, a0_prep, a_prep, b_prep;
  };
  const Precomp& precomp() const;

 private:
  mutable std::shared_ptr<const Precomp> precomp_;
};

// Master signing key msk = (a0, a, b). The scalars are taint-typed: they
// can be combined arithmetically and fed to the constant-pattern ladders
// (MulCt / CtScalarMul / CtInverse), but passing one to a variable-time
// scalar path is a compile error without an explicit Declassify().
struct MasterKey {
  SecretFr a0, a, b;
};

// Per-attribute-set signing key.
struct SigningKey {
  G1 k_base;
  G1 k0;
  std::map<std::string, G1> k_attr;  // K_u = K_base^(1/(a+b*u)) by role name

  // Fixed-base tables for K_base and K_0, built by KeyGen: a signing key
  // typically signs an entire AP²G-tree, so both bases are multiplied once
  // per record/node.
  crypto::FixedBaseTable<crypto::Fp> k_base_tab, k0_tab;

  bool Covers(const RoleSet& roles) const;
};

// Signature sigma = (tau, Y, W, S_1..S_l, P_1..P_t) on a claim-predicate
// carried externally. Row labels of the predicate's span program order the
// S_i components.
struct Signature {
  std::array<std::uint8_t, 32> tau{};
  // ADS epoch this signature was minted at. Hashed into the message scalar
  // mu = H(tau || msg || epoch), so a signature from epoch N cannot be
  // presented as one from epoch M != N without forging: the verifier always
  // recomputes mu from the epoch the signature itself declares.
  std::uint64_t epoch = 0;
  G1 y, w;
  std::vector<G1> s;
  std::vector<G2> p;

  void Serialize(common::ByteWriter* w_) const;
  static Signature Deserialize(common::ByteReader* r);
  std::size_t SerializedSize() const;

  // Smallest possible wire footprint: tau (32) + epoch (8) + y, w as
  // infinity flags (1 each) + two empty vector counts (4 each). Used to
  // clamp hostile element counts before allocating.
  static constexpr std::size_t kMinSerializedSize = 32 + 8 + 1 + 1 + 4 + 4;
};

// Maps a role name to its attribute scalar (SHA-256 into Fr).
Fr RoleScalar(const std::string& role);

namespace internal {

// mu = H(tau || msg || epoch_le8) as an Fr scalar. The epoch rides inside
// the hash, so a signature names the epoch it was minted at without any
// change to the carried message bytes. Older-epoch signatures stay valid;
// a VO's freshness is the EpochStamp's job (core/app_signature.h).
Fr MessageScalar(const std::array<std::uint8_t, 32>& tau,
                 const std::vector<std::uint8_t>& msg, std::uint64_t epoch);

// C * g^mu, the message-binding base.
G1 MessageBase(const VerifyKey& mvk, const Fr& mu);

// A nonzero 128-bit batching weight (Bellare–Garay–Rabin small exponent):
// keeps the per-equation forgery bound at 2^-128 while halving the weight
// multiplications, since wNAF ladder length tracks scalar magnitude.
Fr SmallExponentWeight(Rng* rng);

}  // namespace internal

// The signing stage. Every ABS.Sign and ABS.Relax of a builder (an ADS
// build or update, a VO's relaxations) is queued here in the builder's
// draw order: Sign and Relax do the MSP, purge and hashing work and draw
// every Rng value at once, exactly as the single-signature calls do, and
// queue the signature's scalar multiplications into one crypto::CtMulBatch.
// A run multiplies the queue (its units spread over `parallel_for`, if
// given), assembles every queued signature (each of Y, W and the S_i is
// the sum of its G1 jobs, each P_j the sum of its G2 jobs) and moves it to
// its slot. The bytes depend on the Rng alone, never on the fan-out. The
// queue runs itself once kRunEvery signatures wait, which bounds the
// memory of the jobs while keeping the lane groups full, and hands each
// signature straight to its slot, so a whole tree's signatures never wait
// in a second copy.
class SignBatch {
 public:
  static constexpr std::size_t kRunEvery = 64;

  // The slot of signature i, numbered from 0 in queue order. It is looked
  // up when a run reaches the signature, so it may lie in storage that
  // grew after the signature was queued, but it must exist by then.
  using Slot = std::function<Signature&(std::size_t i)>;

  explicit SignBatch(Slot slot,
                     crypto::CtMulBatch::ParallelFor parallel_for = nullptr)
      : slot_(std::move(slot)), parallel_for_(std::move(parallel_for)) {}

  // Queues ABS.Sign; false, with nothing drawn from `rng` and nothing
  // queued, where Abs::Sign fails. `mvk` and `sk` must outlive the run
  // (their fixed-base tables are read there).
  [[nodiscard]] bool Sign(const VerifyKey& mvk, const SigningKey& sk,
                          const std::vector<std::uint8_t>& msg,
                          const Policy& predicate, Rng* rng,
                          std::uint64_t epoch = 0);
  // Queues ABS.Relax; false, drawing and queueing nothing, where
  // Abs::Relax fails.
  [[nodiscard]] bool Relax(const VerifyKey& mvk, const Signature& sig,
                           const Policy& predicate,
                           const std::vector<std::uint8_t>& msg,
                           const RoleSet& relax_to, Rng* rng);

  // Runs what is queued: every signature queued so far is then in its slot.
  void Run();

 private:
  // Ends a component (Y, W, an S_i or a P_j) at the job `last`.
  void End1(std::size_t last) { g1_ends_.push_back(last + 1); }
  void End2(std::size_t last) { g2_ends_.push_back(last + 1); }
  // Queues `shell` (tau, epoch, and S and P sized to their components) and
  // runs the queue once kRunEvery signatures wait.
  void Queue(Signature shell);

  Slot slot_;
  crypto::CtMulBatch::ParallelFor parallel_for_;
  crypto::CtMulBatch mul_;
  std::vector<std::size_t> g1_ends_, g2_ends_;
  std::vector<Signature> pending_;  // queued since the last run
  std::size_t ran_ = 0;             // signatures already in their slots
};

class Abs {
 public:
  // ABS.Setup.
  static void Setup(Rng* rng, MasterKey* msk, VerifyKey* mvk);

  // ABS.KeyGen: signing key able to sign for any predicate satisfied by
  // `attrs`.
  static SigningKey KeyGen(const MasterKey& msk, const RoleSet& attrs,
                           Rng* rng);

  // ABS.Sign: requires predicate(attrs of sk) = 1 (i.e. a satisfying vector
  // exists over the attributes present in sk). Returns nullopt otherwise.
  // `epoch` is bound into the message scalar and recorded in the signature.
  // A SignBatch of one.
  static std::optional<Signature> Sign(const VerifyKey& mvk,
                                       const SigningKey& sk,
                                       const std::vector<std::uint8_t>& msg,
                                       const Policy& predicate, Rng* rng,
                                       std::uint64_t epoch = 0);

  // ABS.Verify: a batch of one — accumulate the signature into a fresh
  // BatchAccumulator (abs/batch_verify.h) under OS-seeded small-exponent
  // weights, then Check() it. The W-equation and every span-program column
  // equation fold into one pairing product (sound up to 2^-128; the
  // reference library's VerifyUnprepared(..., true) is the column-by-column
  // oracle).
  static bool Verify(const VerifyKey& mvk, const std::vector<std::uint8_t>& msg,
                     const Policy& predicate, const Signature& sig);

  // ABS.Relax (Algorithm 2): derives a signature on ∨_{a∈relax_to} a from a
  // signature on `predicate`. Fails iff predicate(𝔸 \ relax_to) = 1.
  // A SignBatch of one, like Sign.
  static std::optional<Signature> Relax(const VerifyKey& mvk,
                                        const Signature& sig,
                                        const Policy& predicate,
                                        const std::vector<std::uint8_t>& msg,
                                        const RoleSet& relax_to, Rng* rng);
};

}  // namespace apqa::abs

#endif  // APQA_ABS_ABS_H_
