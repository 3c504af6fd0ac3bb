#include "core/system.h"

#include <stdexcept>

namespace apqa::core {

DataOwner::DataOwner(const RoleSet& role_universe, const Domain& domain,
                     std::uint64_t seed)
    : rng_(seed) {
  if (role_universe.count(kPseudoRole)) {
    throw std::invalid_argument("Role@NULL is reserved");
  }
  keys_.universe = role_universe;
  keys_.universe.insert(kPseudoRole);
  keys_.domain = domain;
  abs::Abs::Setup(&rng_, &msk_, &keys_.mvk);
  // The DO can sign for every policy over the universe, including Role_∅.
  sk_do_ = abs::Abs::KeyGen(msk_, keys_.universe, &rng_);
  cpabe::CpAbe::Setup(&rng_, &cmk_, &keys_.cpk);
}

UserCredentials DataOwner::EnrollUser(const RoleSet& roles) {
  for (const auto& r : roles) {
    if (r == kPseudoRole) throw std::invalid_argument("Role@NULL is reserved");
    if (!keys_.universe.count(r)) {
      throw std::invalid_argument("role outside universe: " + r);
    }
  }
  UserCredentials creds;
  creds.roles = roles;
  creds.cpabe_sk = cpabe::CpAbe::KeyGen(cmk_, keys_.cpk, roles, &rng_);
  return creds;
}

GridTree DataOwner::BuildAds(const std::vector<Record>& records,
                             ThreadPool* pool) {
  return GridTree::Build(keys_.mvk, sk_do_, keys_.domain, records, &rng_, pool);
}

SignedAdsUpdate DataOwner::ApplyUpdates(GridTree* tree,
                                        const std::vector<AdsUpdateOp>& ops) {
  AdsDelta delta = tree->ApplyUpdates(keys_.mvk, sk_do_, ops, &rng_);
  auto update = SignAdsUpdate(keys_.mvk, sk_do_, std::move(delta), &rng_);
  if (!update.has_value()) {
    throw std::logic_error("DO signing key does not cover Role_NULL");
  }
  return std::move(*update);
}

ServiceProvider::ServiceProvider(SystemKeys keys, GridTree tree, int threads)
    : keys_(std::move(keys)), tree_(std::move(tree)), rng_(/*os seeded*/) {
  // Build the scalar-multiplication tables up front (no-op when the keys
  // came from a warm Setup in this process) so worker threads never race on
  // the first relaxation.
  keys_.mvk.precomp();
  keys_.cpk.precomp();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

void ServiceProvider::AttachJoinTable(GridTree tree_s) {
  tree_s_ = std::move(tree_s);
}

Vo ServiceProvider::EqualityQuery(const Point& key, const RoleSet& roles) {
  return BuildEqualityVo(tree_, keys_.mvk, key, roles, keys_.universe, &rng_);
}

Vo ServiceProvider::RangeQuery(const Box& range, const RoleSet& roles) {
  return BuildRangeVo(tree_, keys_.mvk, range, roles, keys_.universe, &rng_,
                      pool_.get());
}

JoinVo ServiceProvider::JoinQuery(const Box& range, const RoleSet& roles) {
  if (!tree_s_.has_value()) {
    throw std::logic_error("no join table attached");
  }
  return BuildJoinVo({&tree_, &*tree_s_}, keys_.mvk, range, roles,
                     keys_.universe, &rng_, pool_.get());
}

ApplyStatus ServiceProvider::ApplyAdsUpdate(const SignedAdsUpdate& update) {
  if (!VerifyAdsUpdateAuth(keys_.mvk, update)) return ApplyStatus::kBadPatch;
  return tree_.ApplyDelta(update.delta);
}

namespace {

// Calls fn(p) for every point p of `range`, in row-major order.
template <typename Fn>
void ForEachCell(const Box& range, Fn fn) {
  Point cur = range.lo;
  for (;;) {
    fn(cur);
    int d = static_cast<int>(cur.size()) - 1;
    while (d >= 0) {
      if (cur[d] < range.hi[d]) {
        ++cur[d];
        break;
      }
      cur[d] = range.lo[d];
      --d;
    }
    if (d < 0) return;
  }
}

}  // namespace

Vo ServiceProvider::BasicRangeQuery(const Box& range, const RoleSet& roles) {
  // Repeat the equality protocol for every discrete value in the range.
  Vo vo;
  vo.stamp = tree_.stamp();
  ForEachCell(range, [&](const Point& p) {
    Vo one = BuildEqualityVo(tree_, keys_.mvk, p, roles, keys_.universe,
                             &rng_);
    vo.entries.push_back(std::move(one.entries[0]));
  });
  return vo;
}

JoinVo ServiceProvider::BasicJoinQuery(const Box& range, const RoleSet& roles) {
  if (!tree_s_.has_value()) {
    throw std::logic_error("no join table attached");
  }
  const std::vector<const GridTree*> trees = {&tree_, &*tree_s_};
  JoinVo vo;
  vo.aps.resize(trees.size());
  for (const GridTree* t : trees) vo.stamps.push_back(t->stamp());
  ForEachCell(range, [&](const Point& p) {
    // The first table whose leaf the user cannot access proves the cell
    // with its equality VO; otherwise the cell is a result tuple.
    std::vector<ResultEntry> tuple;
    for (std::size_t i = 0; i < trees.size(); ++i) {
      const GridTree::Node& leaf = trees[i]->GetNode(trees[i]->LeafAt(p));
      if (!leaf.policy.Evaluate(roles)) {
        Vo one = BuildEqualityVo(*trees[i], keys_.mvk, p, roles,
                                 keys_.universe, &rng_);
        vo.aps[i].push_back(std::move(one.entries[0]));
        return;
      }
      tuple.push_back(ResultEntry{leaf.record.key, leaf.record.value,
                                  leaf.record.policy, leaf.sig});
    }
    vo.tuples.push_back(std::move(tuple));
  });
  return vo;
}

cpabe::Envelope ServiceProvider::SealedRangeQuery(const Box& range,
                                                  const RoleSet& roles) {
  Vo vo = RangeQuery(range, roles);
  common::ByteWriter w;
  vo.Serialize(&w);
  // Seal under ∧_{a∈roles} a so only a user really holding the claimed role
  // set can open the response (Algorithm 1/3, last step).
  Policy transport = Policy::AndOfRoles(roles);
  return cpabe::Seal(keys_.cpk, transport, w.Take(), &rng_);
}

cpabe::Envelope ServiceProvider::SealedEqualityQuery(const Point& key,
                                                     const RoleSet& roles) {
  Vo vo = EqualityQuery(key, roles);
  common::ByteWriter w;
  vo.Serialize(&w);
  return cpabe::Seal(keys_.cpk, Policy::AndOfRoles(roles), w.Take(), &rng_);
}

User::User(SystemKeys keys, UserCredentials creds, int threads)
    : keys_(std::move(keys)), creds_(std::move(creds)) {
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  keys_.mvk.precomp();  // fixed-base and prepared-pairing tables
}

VerifyContext User::Context() const {
  VerifyContext ctx(keys_.mvk, keys_.domain, creds_.roles, keys_.universe);
  ctx.expected_epoch = expected_epoch_;
  ctx.pool = pool_.get();
  return ctx;
}

VerifyResult User::VerifyEquality(const Point& key, const Vo& vo,
                                  Record* result, bool* accessible) const {
  return VerifyEqualityVo(Context(), key, vo, result, accessible);
}

VerifyResult User::VerifyRange(const Box& range, const Vo& vo,
                               std::vector<Record>* results) const {
  return VerifyRangeVo(Context(), range, vo, results);
}

VerifyResult User::VerifyJoin(const Box& range, const JoinVo& vo,
                              std::vector<std::vector<Record>>* results) const {
  return VerifyJoinVo(Context(), range, 2, vo, results);
}

namespace {

// Decrypts a sealed response and decodes the VO inside it.
VerifyResult OpenSealedVo(const SystemKeys& keys, const UserCredentials& creds,
                          const cpabe::Envelope& env,
                          common::Untrusted<Vo>* vo) {
  auto plain = cpabe::Open(keys.cpk, creds.cpabe_sk, env);
  if (!plain.has_value()) {
    return VerifyResult::Fail(VerifyCode::kPolicyNotSatisfied,
                              "cannot open sealed response");
  }
  common::ByteReader r(*plain);
  *vo = Vo::Deserialize(&r);
  if (!r.ok()) {
    return VerifyResult::Fail(VerifyCode::kMalformedVo, "malformed sealed VO");
  }
  return VerifyResult::Ok();
}

}  // namespace

VerifyResult User::OpenAndVerifyRange(const Box& range,
                                      const cpabe::Envelope& env,
                                      std::vector<Record>* results) const {
  common::Untrusted<Vo> vo;
  if (VerifyResult r = OpenSealedVo(keys_, creds_, env, &vo); !r.ok()) {
    return r;
  }
  return VerifyRangeVo(Context(), range, vo, results);
}

VerifyResult User::OpenAndVerifyEquality(const Point& key,
                                         const cpabe::Envelope& env,
                                         Record* result,
                                         bool* accessible) const {
  common::Untrusted<Vo> vo;
  if (VerifyResult r = OpenSealedVo(keys_, creds_, env, &vo); !r.ok()) {
    return r;
  }
  return VerifyEqualityVo(Context(), key, vo, result, accessible);
}

}  // namespace apqa::core
