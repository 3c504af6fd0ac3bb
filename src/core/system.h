// Three-party system facade (paper §3, Figure 2): DataOwner, ServiceProvider,
// User.
//
//   * The DataOwner generates master keys, enrolls users (CP-ABE decryption
//     keys for their role sets), signs the ADS (AP²G-tree) and outsources it.
//   * The ServiceProvider answers equality/range/join queries, constructing
//     VOs, optionally sealing responses with CP-ABE+AES so only a user who
//     really holds the claimed roles can read them (impersonation defense).
//   * The User verifies soundness and completeness of every response.
//
// The paper's "Basic" baseline — repeating the equality protocol for every
// discrete value in a range — is provided for benchmark comparison.
#ifndef APQA_CORE_SYSTEM_H_
#define APQA_CORE_SYSTEM_H_

#include <memory>
#include <optional>

#include "core/equality.h"
#include "core/grid_tree.h"
#include "core/join_query.h"
#include "core/range_query.h"
#include "cpabe/cpabe.h"

namespace apqa::core {

// Public parameters every party knows.
struct SystemKeys {
  abs::VerifyKey mvk;
  cpabe::PublicKey cpk;
  RoleSet universe;  // the global role set 𝔸, including Role_∅
  Domain domain;
};

// Per-user secrets issued by the DO.
struct UserCredentials {
  RoleSet roles;
  cpabe::SecretKey cpabe_sk;
};

class DataOwner {
 public:
  // `role_universe` must not contain Role_∅ (added automatically).
  DataOwner(const RoleSet& role_universe, const Domain& domain,
            std::uint64_t seed);

  const SystemKeys& keys() const { return keys_; }
  UserCredentials EnrollUser(const RoleSet& roles);

  // Builds and signs the AP²G-tree for a table.
  GridTree BuildAds(const std::vector<Record>& records,
                    ThreadPool* pool = nullptr);

  // Applies an update batch to the DO's local replica of the ADS (advancing
  // its epoch by one) and returns the authenticated delta to ship to the
  // SP. The DO signature covers the whole delta at the new epoch, so the SP
  // can reject forged or replayed update frames before touching its tree.
  SignedAdsUpdate ApplyUpdates(GridTree* tree,
                               const std::vector<AdsUpdateOp>& ops);

  // DO-side primitives for the auxiliary index structures (AP²kd-tree,
  // continuous-attribute ADS).
  const abs::SigningKey& signing_key() const { return sk_do_; }
  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
  abs::MasterKey msk_;
  abs::SigningKey sk_do_;
  cpabe::MasterKey cmk_;
  SystemKeys keys_;
};

class ServiceProvider {
 public:
  // `threads` > 1 enables the §8.2 parallel relaxation path.
  ServiceProvider(SystemKeys keys, GridTree tree, int threads = 1);

  // Attaches a second table's ADS for join queries.
  void AttachJoinTable(GridTree tree_s);

  Vo EqualityQuery(const Point& key, const RoleSet& roles);
  Vo RangeQuery(const Box& range, const RoleSet& roles);
  JoinVo JoinQuery(const Box& range, const RoleSet& roles);

  // The paper's Basic baseline: per-cell equality authentication.
  Vo BasicRangeQuery(const Box& range, const RoleSet& roles);
  JoinVo BasicJoinQuery(const Box& range, const RoleSet& roles);

  // Full-protocol transport: the serialized VO sealed under ∧_{a∈roles} a
  // (Algorithm 1 / Algorithm 3, last step).
  cpabe::Envelope SealedRangeQuery(const Box& range, const RoleSet& roles);
  cpabe::Envelope SealedEqualityQuery(const Point& key, const RoleSet& roles);

  const GridTree& tree() const { return tree_; }
  // Public parameters (needed by the service runtime to validate inbound
  // queries against the domain before touching the ADS).
  const SystemKeys& keys() const { return keys_; }

  // Current epoch of the primary ADS (bound into every VO's freshness
  // stamp; advertised to clients in query responses).
  std::uint64_t epoch() const { return tree_.epoch(); }

  // Applies an authenticated DO→SP update: verifies the DO signature over
  // the delta, then atomically swaps the tree state (GridTree::ApplyDelta
  // mutates nothing on rejection). Callers in the service runtime must hold
  // their own lock; the facade itself is not synchronized.
  ApplyStatus ApplyAdsUpdate(const SignedAdsUpdate& update);
  // Validate-then-apply gate for wire-decoded updates: authentication plus
  // GridTree::ApplyDelta's cross-checks are the declassification point, so
  // the tainted frame payload feeds it directly.
  ApplyStatus ApplyAdsUpdate(const common::Untrusted<SignedAdsUpdate>& update) {
    // untrusted-ok: ApplyAdsUpdate verifies DO authenticity before applying.
    return ApplyAdsUpdate(update.Unvalidated());
  }

 private:
  SystemKeys keys_;
  GridTree tree_;
  std::optional<GridTree> tree_s_;
  Rng rng_;
  std::unique_ptr<ThreadPool> pool_;
};

class User {
 public:
  // `threads` > 1 fans independent VO signature checks out over an internal
  // pool; verification diagnostics are identical to the serial path (see
  // core/parallel_verify.h). Construction also warms the mvk's
  // prepared-pairing tables so the first verification pays no setup cost.
  User(SystemKeys keys, UserCredentials creds, int threads = 1);

  const RoleSet& roles() const { return creds_.roles; }

  // Minimum ADS epoch the user will accept (monotone high-water mark).
  // Every Verify* call checks the VO's freshness stamp against this before
  // any signature work, so a replayed pre-update VO fails with kStaleEpoch.
  std::uint64_t expected_epoch() const { return expected_epoch_; }
  void set_expected_epoch(std::uint64_t epoch) {
    if (epoch > expected_epoch_) expected_epoch_ = epoch;
  }

  // The VerifyContext every Verify* call below runs under: the user's
  // roles and lacked set, the pool, and the current expected_epoch().
  VerifyContext Context() const;

  VerifyResult VerifyEquality(const Point& key, const Vo& vo, Record* result,
                              bool* accessible) const;
  VerifyResult VerifyRange(const Box& range, const Vo& vo,
                           std::vector<Record>* results) const;
  // The two-table join of ServiceProvider::JoinQuery: one record per table
  // for each result tuple.
  VerifyResult VerifyJoin(const Box& range, const JoinVo& vo,
                          std::vector<std::vector<Record>>* results) const;

  // Opens a sealed response and verifies it. A response the user's CP-ABE
  // key cannot open fails kPolicyNotSatisfied; undecodable bytes fail
  // kMalformedVo.
  VerifyResult OpenAndVerifyRange(const Box& range, const cpabe::Envelope& env,
                                  std::vector<Record>* results) const;
  VerifyResult OpenAndVerifyEquality(const Point& key,
                                     const cpabe::Envelope& env,
                                     Record* result, bool* accessible) const;

 private:
  SystemKeys keys_;
  UserCredentials creds_;
  std::unique_ptr<ThreadPool> pool_;
  std::uint64_t expected_epoch_ = 0;
};

}  // namespace apqa::core

#endif  // APQA_CORE_SYSTEM_H_
