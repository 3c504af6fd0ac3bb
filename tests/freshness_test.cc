// Replay-robustness regression suite: a VO minted at epoch N verifies at N,
// and the *same bytes* replayed after the DO advanced the ADS to N+1 must be
// rejected with kStaleEpoch — a precise freshness diagnostic, not a generic
// signature failure — identically under the batched multi-pairing verifier
// and the per-signature fallback path.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/serde.h"
#include "core/equality.h"
#include "core/join_query.h"
#include "core/parallel_verify.h"
#include "core/range_query.h"
#include "core/system.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

struct FreshEnv {
  abs::MasterKey msk;
  VerifyKey mvk;
  abs::SigningKey sk;
  RoleSet universe{"RoleA", "RoleB"};
  RoleSet user{"RoleA"};
  Domain domain{1, 3};  // keys 0..7
  Box range{Point{0}, Point{7}};
  std::optional<GridTree> tree_r, tree_s;
  // Epoch-0 VOs, frozen as bytes before any update (the replay material).
  std::vector<std::uint8_t> eq_bytes, range_bytes, join_bytes;

  VerifyContext Ctx(std::uint64_t expected_epoch) const {
    VerifyContext ctx(mvk, domain, user, universe);
    ctx.expected_epoch = expected_epoch;
    return ctx;
  }

  static FreshEnv& Get() {
    static FreshEnv* env = [] {
      auto* e = new FreshEnv;
      Rng rng(20260810);
      abs::Abs::Setup(&rng, &e->msk, &e->mvk);
      RoleSet all = e->universe;
      all.insert(kPseudoRole);
      e->sk = abs::Abs::KeyGen(e->msk, all, &rng);
      e->tree_r = GridTree::Build(
          e->mvk, e->sk, e->domain,
          {
              Record{Point{1}, "v1", Policy::Parse("RoleA")},
              Record{Point{5}, "v5", Policy::Parse("RoleB")},
          },
          &rng);
      e->tree_s = GridTree::Build(
          e->mvk, e->sk, e->domain,
          {
              Record{Point{1}, "s1", Policy::Parse("RoleA")},
              Record{Point{6}, "s6", Policy::Parse("RoleB")},
          },
          &rng);

      auto freeze = [](const auto& vo) {
        common::ByteWriter w;
        vo.Serialize(&w);
        return w.data();
      };
      e->eq_bytes = freeze(BuildEqualityVo(*e->tree_r, e->mvk, Point{1},
                                           e->user, e->universe, &rng));
      e->range_bytes = freeze(BuildRangeVo(*e->tree_r, e->mvk, e->range,
                                           e->user, e->universe, &rng));
      e->join_bytes = freeze(BuildJoinVo({&*e->tree_r, &*e->tree_s}, e->mvk,
                                         e->range, e->user, e->universe,
                                         &rng));

      // The update that makes the frozen VOs stale: both tables advance to
      // epoch 1 (the join verifier checks both stamps).
      e->tree_r->ApplyUpdates(e->mvk, e->sk,
                              {{AdsUpdateOp::Kind::kUpsert,
                                Record{Point{2}, "v2",
                                       Policy::Parse("RoleA")}}},
                              &rng);
      e->tree_s->ApplyUpdates(e->mvk, e->sk,
                              {{AdsUpdateOp::Kind::kDelete,
                                Record{Point{6}, "", Policy{}}}},
                              &rng);
      return e;
    }();
    return *env;
  }
};

// `args` follow the reader: a JoinVo takes its table count.
template <typename VoT, typename... Args>
VoT MustDeser(const std::vector<std::uint8_t>& bytes, Args... args) {
  common::ByteReader r(bytes);
  VoT vo = VoT::DeserializeRaw(&r, args...);
  EXPECT_TRUE(r.ok() && r.AtEnd());
  return vo;
}

// Runs all three verifiers over the frozen epoch-0 bytes at
// `expected_epoch` and returns the three result codes.
struct ReplayCodes {
  VerifyCode eq, range, join;
};

ReplayCodes VerifyFrozen(std::uint64_t expected_epoch) {
  FreshEnv& e = FreshEnv::Get();
  ReplayCodes out{};
  {
    Vo vo = MustDeser<Vo>(e.eq_bytes);
    out.eq = VerifyEqualityVo(e.Ctx(expected_epoch), Point{1}, vo, nullptr,
                              nullptr)
                 .code;
  }
  {
    Vo vo = MustDeser<Vo>(e.range_bytes);
    out.range = VerifyRangeVo(e.Ctx(expected_epoch), e.range, vo, nullptr)
                    .code;
  }
  {
    JoinVo vo = MustDeser<JoinVo>(e.join_bytes, 2);
    out.join = VerifyJoinVo(e.Ctx(expected_epoch), e.range, 2, vo, nullptr)
                   .code;
  }
  return out;
}

TEST(ReplayTest, EpochZeroVoVerifiesAtItsOwnEpoch) {
  ReplayCodes codes = VerifyFrozen(/*expected_epoch=*/0);
  EXPECT_EQ(codes.eq, VerifyCode::kOk);
  EXPECT_EQ(codes.range, VerifyCode::kOk);
  EXPECT_EQ(codes.join, VerifyCode::kOk);
}

TEST(ReplayTest, ReplayedVoFailsWithStaleEpochNotBadSignature) {
  ReplayCodes codes = VerifyFrozen(/*expected_epoch=*/1);
  EXPECT_EQ(codes.eq, VerifyCode::kStaleEpoch);
  EXPECT_EQ(codes.range, VerifyCode::kStaleEpoch);
  EXPECT_EQ(codes.join, VerifyCode::kStaleEpoch);
}

TEST(ReplayTest, RejectionIsIdenticalOnBatchedAndPerSignaturePaths) {
  // The freshness gate runs before any signature batching, so the byte-for
  // -byte identical VO must produce the same verdict on both verify paths.
  ReplayCodes batched = VerifyFrozen(/*expected_epoch=*/1);
  ReplayCodes per_sig{};
  {
    ScopedPerSignatureVerify scoped;
    per_sig = VerifyFrozen(/*expected_epoch=*/1);
  }
  EXPECT_EQ(batched.eq, per_sig.eq);
  EXPECT_EQ(batched.range, per_sig.range);
  EXPECT_EQ(batched.join, per_sig.join);
  EXPECT_EQ(per_sig.eq, VerifyCode::kStaleEpoch);
  EXPECT_EQ(per_sig.range, VerifyCode::kStaleEpoch);
  EXPECT_EQ(per_sig.join, VerifyCode::kStaleEpoch);

  // And the positive case stays positive on both paths too.
  ReplayCodes ok_batched = VerifyFrozen(/*expected_epoch=*/0);
  ReplayCodes ok_per_sig{};
  {
    ScopedPerSignatureVerify scoped;
    ok_per_sig = VerifyFrozen(/*expected_epoch=*/0);
  }
  EXPECT_EQ(ok_batched.eq, ok_per_sig.eq);
  EXPECT_EQ(ok_per_sig.range, VerifyCode::kOk);
  EXPECT_EQ(ok_per_sig.join, VerifyCode::kOk);
}

TEST(ReplayTest, FreshVoAtTheNewEpochVerifies) {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(31);
  Vo vo = BuildRangeVo(*e.tree_r, e.mvk, e.range, e.user, e.universe, &rng);
  std::vector<Record> results;
  VerifyResult r = VerifyRangeVo(e.Ctx(1), e.range, vo, &results);
  ASSERT_TRUE(r.ok()) << r.ToString();
  // v1 (signed at build) and v2 (signed by the epoch-1 batch) both verify:
  // node signatures carry epoch 0 whenever they are minted, and freshness
  // rides the stamp.
  ASSERT_EQ(results.size(), 2u);
}

TEST(ReplayTest, NewerVoPassesAnOlderExpectation) {
  // expected_epoch is a minimum, not an exact match: a client that lags the
  // DO must still accept newer, attested VOs.
  FreshEnv& e = FreshEnv::Get();
  Rng rng(32);
  Vo vo = BuildEqualityVo(*e.tree_r, e.mvk, Point{2}, e.user, e.universe,
                          &rng);
  VerifyResult r = VerifyEqualityVo(e.Ctx(0), Point{2}, vo, nullptr, nullptr);
  EXPECT_TRUE(r.ok()) << r.ToString();
}

TEST(ReplayTest, UserFacadeRejectsReplaysAfterEpochAdvance) {
  // User builds its VerifyContext per call: raising the epoch floor after
  // construction must reach every query type, not a snapshot taken earlier.
  FreshEnv& e = FreshEnv::Get();
  SystemKeys keys;
  keys.mvk = e.mvk;
  keys.universe = e.universe;
  keys.domain = e.domain;
  User user(keys, UserCredentials{e.user, {}});
  Vo eq = MustDeser<Vo>(e.eq_bytes);
  Vo range = MustDeser<Vo>(e.range_bytes);
  JoinVo join = MustDeser<JoinVo>(e.join_bytes, 2);
  ASSERT_TRUE(VerifyOk(user.VerifyEquality(Point{1}, eq, nullptr, nullptr)));
  ASSERT_TRUE(VerifyOk(user.VerifyRange(e.range, range, nullptr)));
  ASSERT_TRUE(VerifyOk(user.VerifyJoin(e.range, join, nullptr)));

  user.set_expected_epoch(1);
  EXPECT_EQ(user.VerifyEquality(Point{1}, eq, nullptr, nullptr).code,
            VerifyCode::kStaleEpoch);
  EXPECT_EQ(user.VerifyRange(e.range, range, nullptr).code,
            VerifyCode::kStaleEpoch);
  EXPECT_EQ(user.VerifyJoin(e.range, join, nullptr).code,
            VerifyCode::kStaleEpoch);
}

TEST(ReplayTest, ForgedStampEpochFailsSignatureCheck) {
  // An attacker re-labeling a stale VO with a bumped epoch cannot mint the
  // attestation: the stamp's ABS signature covers (epoch, digest).
  FreshEnv& e = FreshEnv::Get();
  Vo vo = MustDeser<Vo>(e.range_bytes);
  vo.stamp.epoch = 1;  // claim freshness without the DO's signature
  VerifyResult r = VerifyRangeVo(e.Ctx(1), e.range, vo, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.code == VerifyCode::kStaleEpoch ||
              r.code == VerifyCode::kBadSignature)
      << r.ToString();
}

// --- The attestation rides the VO's signature batch -----------------------
//
// RunVerify checks every stamp's fields first, then queues each attestation
// as a leading job of the VO's one signature batch. Blame must still reach
// a bad attestation before any entry, emit nothing, and read the same on
// the batched and per-signature paths.

void ExpectAttestationRejected(const VerifyResult& r) {
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, -1) << r.ToString();
  EXPECT_EQ(r.detail, "epoch attestation rejected");
}

TEST(AttestationBatchTest, ForgedAttestationOutranksABrokenEntry) {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(41);
  Vo range = BuildRangeVo(*e.tree_r, e.mvk, e.range, e.user, e.universe,
                          &rng);
  ASSERT_TRUE(range.stamp.attested);
  Vo bad = range;
  bad.stamp.ads_digest[0] ^= 1;  // the attestation no longer signs this
  bad.entries.pop_back();        // and the entries no longer cover the box
  for (bool per_sig : {false, true}) {
    std::optional<ScopedPerSignatureVerify> guard;
    if (per_sig) guard.emplace();
    std::vector<Record> results;
    ExpectAttestationRejected(
        VerifyRangeVo(e.Ctx(1), e.range, bad, &results));
    EXPECT_TRUE(results.empty()) << "per_sig " << per_sig;
  }

  // Equality: the accessible record must not be emitted either.
  Vo eq = BuildEqualityVo(*e.tree_r, e.mvk, Point{1}, e.user, e.universe,
                          &rng);
  ASSERT_TRUE(std::holds_alternative<ResultEntry>(eq.entries[0]));
  for (bool broken_entry : {false, true}) {
    Vo ebad = eq;
    ebad.stamp.attestation.w = ebad.stamp.attestation.w.Double();
    if (broken_entry) std::get<ResultEntry>(ebad.entries[0]).key = Point{2};
    for (bool per_sig : {false, true}) {
      std::optional<ScopedPerSignatureVerify> guard;
      if (per_sig) guard.emplace();
      Record rec{Point{7}, "untouched", Policy{}};
      bool accessible = false;
      ExpectAttestationRejected(
          VerifyEqualityVo(e.Ctx(1), Point{1}, ebad, &rec, &accessible));
      EXPECT_EQ(rec.value, "untouched");
      EXPECT_FALSE(accessible);
    }
  }

  // A structurally broken attestation (wrong row count) is blamed the same.
  Vo shape = range;
  shape.stamp.attestation.s.push_back(shape.stamp.attestation.s[0]);
  std::vector<Record> results;
  ExpectAttestationRejected(VerifyRangeVo(e.Ctx(1), e.range, shape, &results));
  EXPECT_TRUE(results.empty());
}

TEST(AttestationBatchTest, BatchedMatchesPerSignatureOnAttestedVos) {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(42);
  // Equality: accessible (key 1) and inaccessible (key 5) entries.
  for (std::uint32_t k : {1u, 5u}) {
    Vo eq = BuildEqualityVo(*e.tree_r, e.mvk, Point{k}, e.user, e.universe,
                            &rng);
    ASSERT_TRUE(eq.stamp.attested);
    std::vector<Vo> variants(4, eq);
    variants[1].stamp.ads_digest[0] ^= 1;
    for (std::size_t v : {2u, 3u}) {
      if (auto* res = std::get_if<ResultEntry>(&variants[v].entries[0])) {
        res->value += "x";
      } else {
        auto& rec = std::get<InaccessibleRecordEntry>(variants[v].entries[0]);
        rec.value_hash[0] ^= 1;
      }
    }
    variants[3].stamp.attestation.y = variants[3].stamp.attestation.y.Double();
    for (std::size_t v = 0; v < variants.size(); ++v) {
      Record brec, srec;
      bool bacc = false, sacc = false;
      VerifyResult b =
          VerifyEqualityVo(e.Ctx(1), Point{k}, variants[v], &brec, &bacc);
      VerifyResult s;
      {
        ScopedPerSignatureVerify guard;
        s = VerifyEqualityVo(e.Ctx(1), Point{k}, variants[v], &srec, &sacc);
      }
      EXPECT_EQ(b.ok(), v == 0) << "key " << k << " variant " << v;
      EXPECT_TRUE(SameResult(b, s))
          << "key " << k << " variant " << v << ": " << b.ToString()
          << " vs " << s.ToString();
      EXPECT_EQ(bacc, sacc);
      EXPECT_EQ(brec.value, srec.value);
    }
  }

  // Join: two stamps, so two leading attestation jobs.
  JoinVo join = BuildJoinVo({&*e.tree_r, &*e.tree_s}, e.mvk, e.range, e.user,
                            e.universe, &rng);
  ASSERT_TRUE(join.stamps[0].attested && join.stamps[1].attested);
  ASSERT_FALSE(join.tuples.empty());
  std::vector<JoinVo> variants(5, join);
  variants[1].stamps[0].ads_digest[0] ^= 1;
  variants[2].stamps[1].ads_digest[0] ^= 1;
  variants[3].tuples.front()[0].value += "x";
  variants[4].stamps[1].ads_digest[0] ^= 1;
  variants[4].tuples.front()[1].value += "x";
  for (std::size_t v = 0; v < variants.size(); ++v) {
    std::vector<std::vector<Record>> bout, sout;
    VerifyResult b = VerifyJoinVo(e.Ctx(1), e.range, 2, variants[v], &bout);
    VerifyResult s;
    {
      ScopedPerSignatureVerify guard;
      s = VerifyJoinVo(e.Ctx(1), e.range, 2, variants[v], &sout);
    }
    EXPECT_EQ(b.ok(), v == 0) << "variant " << v;
    EXPECT_TRUE(SameResult(b, s))
        << "variant " << v << ": " << b.ToString() << " vs " << s.ToString();
    EXPECT_EQ(bout.size(), sout.size()) << "variant " << v;
    if (v == 1 || v == 2 || v == 4) {
      ExpectAttestationRejected(b);
      EXPECT_TRUE(bout.empty());
    }
  }
}

// Every stamp's fields are checked before any attestation is verified. So
// when one join stamp carries a forged attestation and the other is stale,
// the stale stamp is reported, though it comes second.
TEST(AttestationBatchTest, StaleSecondStampOutranksForgedFirstAttestation) {
  FreshEnv& e = FreshEnv::Get();
  Rng rng(43);
  JoinVo join = BuildJoinVo({&*e.tree_r, &*e.tree_s}, e.mvk, e.range, e.user,
                            e.universe, &rng);
  JoinVo frozen = MustDeser<JoinVo>(e.join_bytes, 2);
  join.stamps[0].ads_digest[0] ^= 1;
  join.stamps[1] = frozen.stamps[1];  // epoch 0, below the expected epoch 1
  VerifyResult r = VerifyJoinVo(e.Ctx(1), e.range, 2, join, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kStaleEpoch) << r.ToString();
}

}  // namespace
}  // namespace apqa::core
