// Fault-injection harness for the untrusted SP → user path.
//
// For each of the six query-type VOs (equality, range, join, kd, dup,
// continuous) the harness serializes a known-good VO, then replays hundreds
// of seeded byte-level mutations (common/mutate.h) through the full
// deserialize + verify pipeline, asserting two invariants:
//
//   1. No crash: every mutation either verifies or is rejected; nothing
//      throws, over-allocates, or trips a sanitizer (scripts/check.sh runs
//      this suite under ASan).
//   2. No false accept: a mutation that still verifies must yield exactly
//      the baseline accessible result set. Anything else is a forgery.
//
// A structural tamper matrix then checks that *specific* corruptions map
// to *specific* VerifyResult codes, so diagnostics stay precise.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/mutate.h"
#include "core/continuous.h"
#include "core/duplicates.h"
#include "core/equality.h"
#include "core/join_query.h"
#include "core/kd_tree.h"
#include "core/range_query.h"
#include "crypto/serde.h"
#include "crypto/sha256.h"
#include "test_hostile_points.h"

namespace apqa::core {
namespace {

constexpr int kMutationsPerCase = 200;  // x6 cases >= 1000 total

struct FaultEnv {
  abs::MasterKey msk;
  VerifyKey mvk;
  abs::SigningKey sk;
  RoleSet universe{"RoleA", "RoleB", "RoleC"};
  RoleSet user{"RoleA"};
  Domain grid_domain{1, 3};  // keys 0..7
  Domain dup_domain{1, 2};   // keys 0..3
  Box grid_range{Point{0}, Point{7}};
  Box dup_range{Point{0}, Point{3}};
  std::optional<GridTree> tree_r, tree_s;
  std::optional<KdTree> kd;
  std::optional<DupGridTree> dup;
  std::optional<ContinuousAds> cont;
  // Baseline VOs kept in object form for the structural tamper matrix.
  Vo eq_vo, range_vo;
  JoinVo join_vo;
  KdVo kd_vo;
  DupVo dup_vo;
  ContinuousVo cont_vo;
  // Crossing-box fixtures. A 4×4 grid whose quadrants all cross the
  // centre range: the accessible record at (1, 1) keeps its quadrant
  // accessible, and the other three quadrants are relaxed as crossing
  // boxes. And a duplicate tree over keys 0..7 whose [2, 3] and [6, 7]
  // subtrees are inaccessible.
  Domain quad_domain{2, 2};
  Box quad_range{Point{1, 1}, Point{2, 2}};
  std::optional<GridTree> quad;
  Vo cross_vo;
  Domain dup_wide_domain{1, 3};
  std::optional<DupGridTree> dup_wide;
  // A valid authenticated DO→SP update delta (epoch 0 → 1) for the
  // kAdsUpdate payload sweep.
  std::vector<std::uint8_t> update_bytes;

  VerifyContext Ctx(const Domain& domain) const {
    return VerifyContext(mvk, domain, user, universe);
  }
};

FaultEnv* GetEnv() {
  static FaultEnv* s = [] {
    auto* st = new FaultEnv;
    Rng rng(20260807);
    abs::Abs::Setup(&rng, &st->msk, &st->mvk);
    RoleSet all = st->universe;
    all.insert(kPseudoRole);
    st->sk = abs::Abs::KeyGen(st->msk, all, &rng);
    const abs::SigningKey& sk = st->sk;

    std::vector<Record> recs_r = {
        Record{Point{1}, "v1", Policy::Parse("RoleA")},
        Record{Point{3}, "v3", Policy::Parse("RoleB")},
        Record{Point{5}, "v5", Policy::Parse("RoleA | RoleC")},
    };
    std::vector<Record> recs_s = {
        Record{Point{1}, "s1", Policy::Parse("RoleA")},
        Record{Point{5}, "s5", Policy::Parse("RoleB")},
        Record{Point{6}, "s6", Policy::Parse("RoleA")},
    };
    st->tree_r = GridTree::Build(st->mvk, sk, st->grid_domain, recs_r, &rng);
    st->tree_s = GridTree::Build(st->mvk, sk, st->grid_domain, recs_s, &rng);
    st->kd = KdTree::Build(st->mvk, sk, st->grid_domain, recs_r, &rng);
    st->dup = DupGridTree::Build(
        st->mvk, sk, st->dup_domain,
        {
            Record{Point{1}, "a", Policy::Parse("RoleA")},
            Record{Point{1}, "b", Policy::Parse("RoleB")},
            Record{Point{2}, "c", Policy::Parse("RoleA")},
        },
        &rng);
    st->cont = ContinuousAds::Build(
        st->mvk, sk,
        {
            ContinuousRecord{100, "c100", Policy::Parse("RoleA")},
            ContinuousRecord{200, "c200", Policy::Parse("RoleB")},
            ContinuousRecord{300, "c300", Policy::Parse("RoleA")},
        },
        &rng);

    st->eq_vo = BuildEqualityVo(*st->tree_r, st->mvk, Point{1}, st->user,
                                st->universe, &rng);
    st->range_vo = BuildRangeVo(*st->tree_r, st->mvk, st->grid_range, st->user,
                                st->universe, &rng);
    st->join_vo = BuildJoinVo({&*st->tree_r, &*st->tree_s}, st->mvk,
                              st->grid_range, st->user, st->universe, &rng);
    st->kd_vo = BuildKdRangeVo(*st->kd, st->mvk, st->grid_range, st->user,
                               st->universe, &rng);
    st->dup_vo = BuildDupRangeVo(*st->dup, st->mvk, st->dup_range, st->user,
                                 st->universe, &rng);
    st->cont_vo = BuildContinuousRangeVo(*st->cont, st->mvk, 50, 350, st->user,
                                         st->universe, &rng);

    // Update-payload baseline: apply one upsert + one delete on a replica so
    // the env trees (and the VOs built from them) stay at epoch 0.
    GridTree replica = *st->tree_r;
    std::vector<AdsUpdateOp> ops;
    ops.push_back({AdsUpdateOp::Kind::kUpsert,
                   Record{Point{2}, "v2", Policy::Parse("RoleB")}});
    ops.push_back({AdsUpdateOp::Kind::kDelete, Record{Point{3}, "", Policy{}}});
    AdsDelta delta = replica.ApplyUpdates(st->mvk, sk, ops, &rng);
    auto update = SignAdsUpdate(st->mvk, sk, std::move(delta), &rng);
    common::ByteWriter uw;
    update->Serialize(&uw);
    st->update_bytes = uw.data();

    // Crossing-box fixtures, built last so the draws above (and the bytes
    // of every corpus baseline) do not depend on them.
    st->quad = GridTree::Build(
        st->mvk, sk, st->quad_domain,
        {
            Record{Point{1, 1}, "q11", Policy::Parse("RoleA")},
            Record{Point{2, 1}, "q21", Policy::Parse("RoleB")},
            Record{Point{1, 2}, "q12", Policy::Parse("RoleB")},
        },
        &rng);
    st->cross_vo = BuildRangeVo(*st->quad, st->mvk, st->quad_range, st->user,
                                st->universe, &rng);
    st->dup_wide = DupGridTree::Build(
        st->mvk, sk, st->dup_wide_domain,
        {
            Record{Point{1}, "a", Policy::Parse("RoleA")},
            Record{Point{1}, "b", Policy::Parse("RoleB")},
            Record{Point{5}, "c", Policy::Parse("RoleA")},
        },
        &rng);
    return st;
  }();
  return s;
}

std::string RecordItem(const Record& r) {
  std::string s;
  for (auto c : r.key) s += std::to_string(c) + ",";
  return s + ":" + r.value;
}

std::string CanonRecords(const std::vector<Record>& rs) {
  std::vector<std::string> items;
  for (const Record& r : rs) items.push_back(RecordItem(r));
  std::sort(items.begin(), items.end());
  std::string out;
  for (const auto& i : items) out += i + ";";
  return out;
}

// What one replay of a case's bytes produced: the decode outcome, the
// verdict, and the results the verifier emitted in emission order (a
// rejected VO may still have emitted the entries ahead of its failure).
struct Outcome {
  std::string decode = "ok";  // else the wire error and its detail
  VerifyResult verdict;       // set only when the bytes decoded
  std::vector<std::string> emitted;

  bool accepted() const { return decode == "ok" && verdict.ok(); }
  // The accepted result set: emitted results, sorted.
  std::string Canon() const {
    std::vector<std::string> items = emitted;
    std::sort(items.begin(), items.end());
    std::string out;
    for (const auto& i : items) out += i + ";";
    return out;
  }
  // Everything observable, emission order kept.
  std::string Line() const {
    std::string out = decode + " | " + VerifyCodeName(verdict.code) + " " +
                      std::to_string(verdict.entry_index) + " " +
                      verdict.detail + " |";
    for (const auto& i : emitted) out += " " + i;
    return out;
  }
};

struct QueryCase {
  const char* name;
  std::vector<std::uint8_t> bytes;
  // Deserializes + verifies `buf`.
  std::function<Outcome(const std::vector<std::uint8_t>&)> run;
};

template <typename VoT>
std::vector<std::uint8_t> Ser(const VoT& vo) {
  common::ByteWriter w;
  vo.Serialize(&w);
  return w.data();
}

// Deserializes a VoT from buf (`args` follow the reader: a JoinVo takes its
// table count); nullopt, with the reason in `out->decode`, if the reader
// flags an error or trailing bytes remain.
template <typename VoT, typename... Args>
std::optional<VoT> Deser(const std::vector<std::uint8_t>& buf, Outcome* out,
                         Args... args) {
  common::ByteReader r(buf.data(), buf.size());
  VoT vo = VoT::DeserializeRaw(&r, args...);
  if (!r.ok()) {
    out->decode = std::string(common::WireErrorName(r.error())) + ": " +
                  (r.error_detail() != nullptr ? r.error_detail() : "");
    return std::nullopt;
  }
  if (!r.AtEnd()) {
    out->decode = "trailing bytes";
    return std::nullopt;
  }
  return vo;
}

std::vector<QueryCase>& Cases() {
  static std::vector<QueryCase>* cases = [] {
    FaultEnv* s = GetEnv();
    auto* cs = new std::vector<QueryCase>;

    cs->push_back({"equality", Ser(s->eq_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<Vo>(buf, &out);
                     if (!vo) return out;
                     // The placeholder record and `acc` stay as they are
                     // unless the verifier emits.
                     Record rec{Point{}, "(none)", Policy{}};
                     bool acc = true;
                     out.verdict = VerifyEqualityVo(s->Ctx(s->grid_domain),
                                                    Point{1}, *vo, &rec, &acc);
                     out.emitted.push_back(acc ? "acc:" + rec.value : "inacc");
                     return out;
                   }});

    cs->push_back({"range", Ser(s->range_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<Vo>(buf, &out);
                     if (!vo) return out;
                     std::vector<Record> rs;
                     out.verdict = VerifyRangeVo(s->Ctx(s->grid_domain),
                                                 s->grid_range, *vo, &rs);
                     for (const Record& r : rs) {
                       out.emitted.push_back(RecordItem(r));
                     }
                     return out;
                   }});

    cs->push_back({"join", Ser(s->join_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<JoinVo>(buf, &out, 2);
                     if (!vo) return out;
                     std::vector<std::vector<Record>> ps;
                     out.verdict = VerifyJoinVo(s->Ctx(s->grid_domain),
                                                s->grid_range, 2, *vo, &ps);
                     for (const auto& row : ps) {
                       out.emitted.push_back(row[0].value + "|" +
                                             row[1].value);
                     }
                     return out;
                   }});

    cs->push_back({"kd", Ser(s->kd_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<KdVo>(buf, &out);
                     if (!vo) return out;
                     std::vector<Record> rs;
                     out.verdict = VerifyKdRangeVo(s->Ctx(s->grid_domain),
                                                   s->grid_range, *vo, &rs);
                     for (const Record& r : rs) {
                       out.emitted.push_back(RecordItem(r));
                     }
                     return out;
                   }});

    cs->push_back({"dup", Ser(s->dup_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<DupVo>(buf, &out);
                     if (!vo) return out;
                     std::vector<Record> rs;
                     out.verdict = VerifyDupRangeVo(s->Ctx(s->dup_domain),
                                                    s->dup_range, *vo, &rs);
                     for (const Record& r : rs) {
                       out.emitted.push_back(RecordItem(r));
                     }
                     return out;
                   }});

    cs->push_back({"continuous", Ser(s->cont_vo),
                   [s](const std::vector<std::uint8_t>& buf) {
                     Outcome out;
                     auto vo = Deser<ContinuousVo>(buf, &out);
                     if (!vo) return out;
                     std::vector<ContinuousRecord> rs;
                     out.verdict = VerifyContinuousRangeVo(
                         s->Ctx(Domain{}), 50, 350, *vo, &rs);
                     for (const auto& r : rs) {
                       out.emitted.push_back(std::to_string(r.key) + ":" +
                                             r.value);
                     }
                     return out;
                   }});

    return cs;
  }();
  return *cases;
}

// Replays case `ci`'s kMutationsPerCase seeded mutations, in order.
template <typename Fn>
void ForEachMutation(std::size_t ci, Fn&& fn) {
  auto& cases = Cases();
  // Donor buffer from a *different* query type: splice mutations model a
  // hostile SP answering with bytes from the wrong VO kind.
  const auto& donor = cases[(ci + 1) % cases.size()].bytes;
  common::MutRng rng(0xA59CA11Full ^ ci);
  for (int i = 0; i < kMutationsPerCase; ++i) {
    std::vector<std::uint8_t> buf = cases[ci].bytes;
    common::MutationKind kind = common::Mutate(&buf, &rng, &donor);
    fn(i, kind, buf);
  }
}

// --- The corpus ------------------------------------------------------------

TEST(FaultInjectionTest, BaselinesVerify) {
  for (auto& qc : Cases()) {
    Outcome o = qc.run(qc.bytes);
    EXPECT_TRUE(o.accepted()) << qc.name << ": " << o.Line();
    EXPECT_FALSE(o.emitted.empty()) << qc.name;
  }
}

TEST(FaultInjectionTest, SeededMutationCorpusNeverForges) {
  auto& cases = Cases();
  int total = 0;
  int accepted = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    QueryCase& qc = cases[ci];
    Outcome baseline = qc.run(qc.bytes);
    ASSERT_TRUE(baseline.accepted()) << qc.name;
    ForEachMutation(ci, [&](int i, common::MutationKind kind,
                            const std::vector<std::uint8_t>& buf) {
      Outcome o = qc.run(buf);
      if (o.accepted()) {
        ++accepted;
        EXPECT_EQ(o.Canon(), baseline.Canon())
            << qc.name << " mutation " << i << " ("
            << common::MutationKindName(kind)
            << ") was accepted with a different result set";
      }
      ++total;
    });
  }
  EXPECT_GE(total, 1000);
  // Most mutations must actually be rejected; if nearly everything is
  // accepted the mutator is broken, not the verifier strong.
  EXPECT_LT(accepted, total / 2);
}

// The whole corpus's observable behaviour, pinned: for every baseline and
// every seeded mutation, the decode outcome, the verdict (code, entry
// index, detail) and the results emitted, partial emissions on a rejected
// VO included. A refactor of the decoders or verifiers that moves any of
// them changes the digest.
TEST(FaultInjectionTest, MutationVerdictsArePinned) {
  auto& cases = Cases();
  std::string lines;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    QueryCase& qc = cases[ci];
    lines += std::string(qc.name) + " base " + qc.run(qc.bytes).Line() + "\n";
    ForEachMutation(ci, [&](int i, common::MutationKind,
                            const std::vector<std::uint8_t>& buf) {
      lines += std::string(qc.name) + " " + std::to_string(i) + " " +
               qc.run(buf).Line() + "\n";
    });
  }
  EXPECT_EQ(crypto::DigestToHex(crypto::Sha256::Hash(
                reinterpret_cast<const std::uint8_t*>(lines.data()),
                lines.size())),
            "64686925761b2ba97fc1d636ab27d0ab15fd18224a2243aa8157219bbc3be75d");
}

TEST(FaultInjectionTest, TruncationAtEveryBoundaryRejected) {
  for (auto& qc : Cases()) {
    for (std::size_t n = 0; n < qc.bytes.size(); ++n) {
      std::vector<std::uint8_t> buf(qc.bytes.begin(), qc.bytes.begin() + n);
      EXPECT_FALSE(qc.run(buf).accepted()) << qc.name << " prefix " << n;
    }
  }
}

// --- Structural tamper matrix: specific corruption -> specific code --------

TEST(TamperMatrixTest, EqualityWrongKeyIsKeyMismatch) {
  FaultEnv* s = GetEnv();
  VerifyResult r = VerifyEqualityVo(
      s->Ctx(s->grid_domain), Point{2}, s->eq_vo, nullptr, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kKeyMismatch) << r.ToString();
}

TEST(TamperMatrixTest, EqualityDuplicatedEntryIsWrongEntryCount) {
  FaultEnv* s = GetEnv();
  Vo vo = s->eq_vo;
  vo.entries.push_back(vo.entries[0]);
  VerifyResult r = VerifyEqualityVo(
      s->Ctx(s->grid_domain), Point{1}, vo, nullptr, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kWrongEntryCount) << r.ToString();
}

TEST(TamperMatrixTest, RangeDroppedEntryIsCoverageGap) {
  FaultEnv* s = GetEnv();
  Vo vo = s->range_vo;
  ASSERT_GT(vo.entries.size(), 1u);
  vo.entries.pop_back();
  VerifyResult r = VerifyRangeVo(
      s->Ctx(s->grid_domain), s->grid_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kCoverageGap) << r.ToString();
}

TEST(TamperMatrixTest, RangeDuplicatedEntryIsOverlap) {
  FaultEnv* s = GetEnv();
  Vo vo = s->range_vo;
  vo.entries.push_back(vo.entries[0]);
  VerifyResult r = VerifyRangeVo(
      s->Ctx(s->grid_domain), s->grid_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kOverlap) << r.ToString();
}

TEST(TamperMatrixTest, RangeTamperedValueIsBadSignature) {
  FaultEnv* s = GetEnv();
  Vo vo = s->range_vo;
  bool tampered = false;
  for (auto& e : vo.entries) {
    if (auto* res = std::get_if<ResultEntry>(&e)) {
      res->value += "x";
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  VerifyResult r = VerifyRangeVo(
      s->Ctx(s->grid_domain), s->grid_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_GE(r.entry_index, 0);
}

TEST(TamperMatrixTest, RangeInvertedQueryIsBadQuery) {
  FaultEnv* s = GetEnv();
  Box inverted{Point{7}, Point{0}};
  VerifyResult r = VerifyRangeVo(
      s->Ctx(s->grid_domain), inverted, s->range_vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadQuery) << r.ToString();
}

TEST(TamperMatrixTest, JoinTamperedPairKeyIsKeyMismatch) {
  FaultEnv* s = GetEnv();
  JoinVo vo = s->join_vo;
  ASSERT_FALSE(vo.tuples.empty());
  Point& key = vo.tuples[0][1].key;
  key = Point{key[0] == 0 ? 1u : key[0] - 1};
  VerifyResult r = VerifyJoinVo(
      s->Ctx(s->grid_domain), s->grid_range, 2, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kKeyMismatch) << r.ToString();
}

TEST(TamperMatrixTest, JoinDroppedPairIsCoverageGap) {
  FaultEnv* s = GetEnv();
  JoinVo vo = s->join_vo;
  ASSERT_FALSE(vo.tuples.empty());
  vo.tuples.clear();
  VerifyResult r = VerifyJoinVo(
      s->Ctx(s->grid_domain), s->grid_range, 2, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kCoverageGap) << r.ToString();
}

TEST(TamperMatrixTest, KdDroppedEntryIsCoverageGap) {
  FaultEnv* s = GetEnv();
  KdVo vo = s->kd_vo;
  ASSERT_FALSE(vo.boxes.empty() && vo.leaves.empty());
  if (!vo.boxes.empty()) {
    vo.boxes.pop_back();
  } else {
    vo.leaves.pop_back();
  }
  VerifyResult r = VerifyKdRangeVo(
      s->Ctx(s->grid_domain), s->grid_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kCoverageGap) << r.ToString();
}

TEST(TamperMatrixTest, KdTamperedValueIsBadSignature) {
  FaultEnv* s = GetEnv();
  KdVo vo = s->kd_vo;
  ASSERT_FALSE(vo.results.empty());
  vo.results[0].value += "x";
  VerifyResult r = VerifyKdRangeVo(
      s->Ctx(s->grid_domain), s->grid_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
}

TEST(TamperMatrixTest, DupDroppedGroupMemberIsDuplicateBookkeeping) {
  FaultEnv* s = GetEnv();
  DupVo vo = s->dup_vo;
  // Key 1 has a two-record group; user {RoleA} sees "a" as a result and "b"
  // as inaccessible. Dropping the inaccessible half leaves the group
  // incomplete while the accessible half still covers the key's cell, so
  // this is bookkeeping-specific, not a coverage gap.
  auto it = std::find_if(vo.inaccessible.begin(), vo.inaccessible.end(),
                         [](const DupVo::DupInaccessibleEntry& e) {
                           return e.dup_num >= 2;
                         });
  ASSERT_NE(it, vo.inaccessible.end());
  vo.inaccessible.erase(it);
  VerifyResult r = VerifyDupRangeVo(
      s->Ctx(s->dup_domain), s->dup_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kDuplicateBookkeeping) << r.ToString();
}

TEST(TamperMatrixTest, ContinuousInvertedQueryIsBadQuery) {
  FaultEnv* s = GetEnv();
  std::vector<ContinuousRecord> rs;
  VerifyResult r = VerifyContinuousRangeVo(
      s->Ctx(Domain{}), 350, 50, s->cont_vo, &rs);
  EXPECT_EQ(r.code, VerifyCode::kBadQuery) << r.ToString();
}

TEST(TamperMatrixTest, ContinuousDroppedEntryIsGapOrMalformed) {
  FaultEnv* s = GetEnv();
  ContinuousVo vo = s->cont_vo;
  ASSERT_FALSE(vo.gaps.empty());
  vo.gaps.pop_back();
  std::vector<ContinuousRecord> rs;
  VerifyResult r = VerifyContinuousRangeVo(s->Ctx(Domain{}), 50, 350, vo, &rs);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.code == VerifyCode::kCoverageGap ||
              r.code == VerifyCode::kMalformedVo)
      << r.ToString();
}

TEST(TamperMatrixTest, ContinuousTamperedValueIsBadSignature) {
  FaultEnv* s = GetEnv();
  ContinuousVo vo = s->cont_vo;
  ASSERT_FALSE(vo.results.empty());
  vo.results[0].value += "x";
  std::vector<ContinuousRecord> rs;
  VerifyResult r = VerifyContinuousRangeVo(s->Ctx(Domain{}), 50, 350, vo, &rs);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
}

// --- Crossing boxes: an APS proves its whole box, clipped to the range ------

// Index of the entry of `vo` whose region is `box`; -1 if none.
std::ptrdiff_t IndexOfRegion(const Vo& vo, const Box& box) {
  for (std::size_t i = 0; i < vo.entries.size(); ++i) {
    if (EntryRegion(vo.entries[i]) == box) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

const Box kQuadX0Y0{Point{0, 0}, Point{1, 1}};
const Box kQuadX1Y0{Point{2, 0}, Point{3, 1}};
const Box kQuadX1Y1{Point{2, 2}, Point{3, 3}};

TEST(CrossingTamperTest, BaselineRelaxesEachCrossingQuadrantOnce) {
  FaultEnv* s = GetEnv();
  const Vo& vo = s->cross_vo;
  // One result (1, 1) and three crossing quadrant boxes.
  ASSERT_EQ(vo.entries.size(), 4u);
  EXPECT_TRUE(std::holds_alternative<ResultEntry>(vo.entries[0]));
  for (std::size_t i = 1; i < vo.entries.size(); ++i) {
    ASSERT_TRUE(std::holds_alternative<InaccessibleBoxEntry>(vo.entries[i]));
    EXPECT_FALSE(s->quad_range.ContainsBox(EntryRegion(vo.entries[i])));
  }
  std::vector<Record> rs;
  ASSERT_TRUE(VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, vo, &rs)
                  .ok());
  EXPECT_EQ(CanonRecords(rs), "1,1,:q11;");
}

TEST(CrossingTamperTest, SiblingApsIsBadSignature) {
  FaultEnv* s = GetEnv();
  Vo vo = s->cross_vo;
  std::ptrdiff_t a = IndexOfRegion(vo, kQuadX1Y0);
  std::ptrdiff_t b = IndexOfRegion(vo, kQuadX1Y1);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  std::get<InaccessibleBoxEntry>(vo.entries[a]).aps_sig =
      std::get<InaccessibleBoxEntry>(vo.entries[b]).aps_sig;
  VerifyResult r =
      VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, a);
}

TEST(CrossingTamperTest, CrossingBoxHidingAResultIsBadSignatureOrOverlap) {
  FaultEnv* s = GetEnv();
  // The accessible quadrant cannot be relaxed for this user...
  const GridTree& tree = *s->quad;
  GridTree::NodeId q0 = tree.Children(tree.Root())[0];
  ASSERT_TRUE(tree.GetNode(q0).box == kQuadX0Y0);
  Rng rng(3);
  EXPECT_FALSE(abs::Abs::Relax(s->mvk, tree.GetNode(q0).sig,
                               tree.GetNode(q0).policy, BoxMessage(kQuadX0Y0),
                               SuperPolicyRoles(s->universe, s->user), &rng)
                   .has_value());
  // ...so a box over it that hides the result (1, 1) carries a borrowed APS.
  const Signature& borrowed = std::get<InaccessibleBoxEntry>(
      s->cross_vo.entries[IndexOfRegion(s->cross_vo, kQuadX1Y1)]).aps_sig;
  Vo hidden = s->cross_vo;
  hidden.entries[0] = InaccessibleBoxEntry{kQuadX0Y0, borrowed};
  VerifyResult r =
      VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, hidden, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, 0);
  // Kept next to the result, the box overlaps it inside the range.
  Vo kept = s->cross_vo;
  kept.entries.push_back(InaccessibleBoxEntry{kQuadX0Y0, borrowed});
  r = VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, kept, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kOverlap) << r.ToString();
  EXPECT_EQ(r.entry_index,
            static_cast<std::ptrdiff_t>(kept.entries.size()) - 1);
}

TEST(CrossingTamperTest, CrossingBoxesOverlappingInRangeAreOverlap) {
  FaultEnv* s = GetEnv();
  Vo vo = s->cross_vo;
  std::ptrdiff_t a = IndexOfRegion(vo, kQuadX1Y0);
  std::ptrdiff_t b = IndexOfRegion(vo, kQuadX1Y1);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // [2, 3] × [0, 2] still crosses the range and now shares cell (2, 2) with
  // the quadrant above it.
  std::get<InaccessibleBoxEntry>(vo.entries[a]).box.hi[1] = 2;
  VerifyResult r =
      VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kOverlap) << r.ToString();
  EXPECT_EQ(r.entry_index, std::max(a, b));
}

TEST(CrossingTamperTest, BoxOutsideRangeIsRegionOutsideRange) {
  FaultEnv* s = GetEnv();
  Vo vo = s->cross_vo;
  InaccessibleBoxEntry outside =
      std::get<InaccessibleBoxEntry>(vo.entries[IndexOfRegion(vo, kQuadX1Y1)]);
  outside.box = Box{Point{3, 3}, Point{3, 3}};
  vo.entries.push_back(outside);
  VerifyResult r =
      VerifyRangeVo(s->Ctx(s->quad_domain), s->quad_range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kRegionOutsideRange) << r.ToString();
  EXPECT_EQ(r.entry_index, static_cast<std::ptrdiff_t>(vo.entries.size()) - 1);
}

// The join and duplicate builders relax a crossing inaccessible node once,
// and their verifiers clip its box to the range.
TEST(CrossingTamperTest, JoinCrossingGapAndOverlap) {
  FaultEnv* s = GetEnv();
  const Box range{Point{1}, Point{6}};
  Rng rng(11);
  JoinVo vo = BuildJoinVo({&*s->tree_r, &*s->tree_s}, s->mvk, range, s->user,
                          s->universe, &rng);
  std::size_t crossing_table = 0, crossing_pos = 0, crossing = 0;
  for (std::size_t t = 0; t < vo.aps.size(); ++t) {
    for (std::size_t i = 0; i < vo.aps[t].size(); ++i) {
      if (!range.ContainsBox(EntryRegion(vo.aps[t][i]))) {
        crossing_table = t;
        crossing_pos = i;
        ++crossing;
      }
    }
  }
  ASSERT_EQ(crossing, 1u);
  auto verify = [&](const JoinVo& v) {
    return VerifyJoinVo(s->Ctx(s->grid_domain), range, 2, v, nullptr);
  };
  ASSERT_TRUE(verify(vo).ok()) << verify(vo).ToString();

  JoinVo gap = vo;
  gap.aps[crossing_table].erase(gap.aps[crossing_table].begin() +
                                static_cast<std::ptrdiff_t>(crossing_pos));
  VerifyResult r = verify(gap);
  EXPECT_EQ(r.code, VerifyCode::kCoverageGap) << r.ToString();
  EXPECT_EQ(r.entry_index, -1);

  // Coverage indexes tuples first, then each table's APS group in order.
  JoinVo overlap = vo;
  auto& group = overlap.aps[crossing_table];
  group.insert(group.begin() + static_cast<std::ptrdiff_t>(crossing_pos) + 1,
               group[crossing_pos]);
  std::size_t expected = overlap.tuples.size() + crossing_pos + 1;
  for (std::size_t t = 0; t < crossing_table; ++t) {
    expected += overlap.aps[t].size();
  }
  r = verify(overlap);
  EXPECT_EQ(r.code, VerifyCode::kOverlap) << r.ToString();
  EXPECT_EQ(r.entry_index, static_cast<std::ptrdiff_t>(expected));
}

TEST(CrossingTamperTest, DupCrossingGapAndOverlap) {
  FaultEnv* s = GetEnv();
  const Box range{Point{3}, Point{6}};
  Rng rng(12);
  DupVo vo = BuildDupRangeVo(*s->dup_wide, s->mvk, range, s->user, s->universe,
                             &rng);
  // Boxes [2, 3] and [6, 7] cross the range; keys 4 and 5 lie inside it.
  ASSERT_EQ(vo.boxes.size(), 2u);
  for (const auto& e : vo.boxes) EXPECT_FALSE(range.ContainsBox(e.box));
  auto verify = [&](const DupVo& v, std::vector<Record>* out) {
    return VerifyDupRangeVo(s->Ctx(s->dup_wide_domain), range, v, out);
  };
  std::vector<Record> rs;
  ASSERT_TRUE(verify(vo, &rs).ok()) << verify(vo, nullptr).ToString();
  EXPECT_EQ(CanonRecords(rs), "5,:c;");

  DupVo gap = vo;
  gap.boxes.pop_back();
  VerifyResult r = verify(gap, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kCoverageGap) << r.ToString();
  EXPECT_EQ(r.entry_index, -1);

  // Coverage indexes the two key cells first, then the boxes.
  DupVo overlap = vo;
  overlap.boxes.push_back(overlap.boxes[0]);
  r = verify(overlap, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kOverlap) << r.ToString();
  EXPECT_EQ(r.entry_index, 4);
}

// A builder-made crossing box carrying another box's APS (its sibling's, in
// the join): the box message no longer matches the signature.
TEST(CrossingTamperTest, JoinCrossingBoxWithSiblingApsIsBadSignature) {
  FaultEnv* s = GetEnv();
  const Box range{Point{1}, Point{6}};
  Rng rng(13);
  JoinVo vo = BuildJoinVo({&*s->tree_r, &*s->tree_s}, s->mvk, range, s->user,
                          s->universe, &rng);
  // R blocks [2, 3] and the crossing [6, 7]; S blocks their sibling [4, 5].
  ASSERT_EQ(vo.aps[0].size(), 2u);
  ASSERT_EQ(vo.aps[1].size(), 1u);
  ASSERT_TRUE(EntryRegion(vo.aps[0][1]) == (Box{Point{6}, Point{7}}));
  ASSERT_TRUE(EntryRegion(vo.aps[1][0]) == (Box{Point{4}, Point{5}}));
  std::get<InaccessibleBoxEntry>(vo.aps[0][1]).aps_sig =
      std::get<InaccessibleBoxEntry>(vo.aps[1][0]).aps_sig;
  VerifyResult r =
      VerifyJoinVo(s->Ctx(s->grid_domain), range, 2, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, 1);
}

TEST(CrossingTamperTest, DupCrossingBoxWithSiblingApsIsBadSignature) {
  FaultEnv* s = GetEnv();
  const Box range{Point{3}, Point{6}};
  Rng rng(14);
  DupVo vo = BuildDupRangeVo(*s->dup_wide, s->mvk, range, s->user, s->universe,
                             &rng);
  // The crossing boxes [2, 3] and [6, 7]; [6, 7] takes [2, 3]'s APS.
  ASSERT_EQ(vo.boxes.size(), 2u);
  vo.boxes[1].aps_sig = vo.boxes[0].aps_sig;
  VerifyResult r =
      VerifyDupRangeVo(s->Ctx(s->dup_wide_domain), range, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kBadSignature) << r.ToString();
  EXPECT_EQ(r.entry_index, 1);
}

// --- Byte-level corruptions map through VerifyResult::FromReader -----------

// Serialized size of a VO's leading freshness stamp: the entry count and
// entries follow it, so offset fixtures are computed, not hard-coded.
std::size_t StampBytes(const Vo& vo) {
  common::ByteWriter w;
  vo.stamp.Serialize(&w);
  return w.data().size();
}

TEST(TamperMatrixTest, UnknownEntryTagGetsDistinctCode) {
  FaultEnv* s = GetEnv();
  std::vector<std::uint8_t> buf = Ser(s->range_vo);
  // First entry's tag byte follows the stamp and the u32 entry count.
  buf[StampBytes(s->range_vo) + 4] = 0xee;
  common::ByteReader r(buf.data(), buf.size());
  // discard-ok: the test only asserts that corrupted bytes do not
  // crash the decoder; r.ok() carries the failure.
  (void)Vo::DeserializeRaw(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kUnknownTag);
  VerifyResult vr = VerifyResult::FromReader(r);
  EXPECT_EQ(vr.code, VerifyCode::kUnknownEntryTag);
}

TEST(TamperMatrixTest, NonSubgroupG2InSignatureGetsDistinctCode) {
  abs::Signature sig;  // infinity y/w, empty s — structurally valid
  sig.p.push_back(crypto::hostile::NonSubgroupG2());
  common::ByteWriter w;
  sig.Serialize(&w);
  common::ByteReader r(w.data());
  // discard-ok: the test only asserts that a truncated signature does
  // not crash the decoder; r.ok() carries the failure.
  (void)abs::Signature::Deserialize(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kPointNotInSubgroup);
  VerifyResult vr = VerifyResult::FromReader(r);
  EXPECT_EQ(vr.code, VerifyCode::kPointNotInSubgroup);
  // The acceptance bar: subgroup violations and tag confusion are
  // distinguishable failure modes, not a shared "bad VO" bucket.
  EXPECT_NE(VerifyCode::kPointNotInSubgroup, VerifyCode::kUnknownEntryTag);
}

TEST(TamperMatrixTest, GarbagePolicyGetsBadPolicyEncoding) {
  // Hand-crafted single-entry VO whose ResultEntry carries an unparseable
  // policy string.
  common::ByteWriter w;
  EpochStamp{}.Serialize(&w);  // unattested stamp leads the VO
  w.PutU32(1);                 // entry count
  w.PutU8(0);                  // ResultEntry tag
  WritePoint(&w, Point{1});
  w.PutString("v");
  w.PutString("((((");  // does not parse
  abs::Signature{}.Serialize(&w);
  common::ByteReader r(w.data());
  // discard-ok: the test only asserts that a type-confused payload
  // does not crash the decoder; r.ok() carries the failure.
  (void)Vo::DeserializeRaw(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kBadPolicy);
  VerifyResult vr = VerifyResult::FromReader(r);
  EXPECT_EQ(vr.code, VerifyCode::kBadPolicyEncoding);
}

TEST(TamperMatrixTest, LengthInflationRejectedWithoutAllocating) {
  FaultEnv* s = GetEnv();
  std::vector<std::uint8_t> buf = Ser(s->range_vo);
  // Claim ~16M entries in a few-KB buffer; CheckCount must refuse before
  // any allocation happens. The entry count sits right after the stamp.
  std::size_t off = StampBytes(s->range_vo);
  buf[off + 0] = 0xff;
  buf[off + 1] = 0xff;
  buf[off + 2] = 0xff;
  buf[off + 3] = 0x00;
  common::ByteReader r(buf.data(), buf.size());
  Vo vo = Vo::DeserializeRaw(&r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kLengthOverflow);
  EXPECT_TRUE(vo.entries.empty());
}

// --- Batched subgroup admission keeps wire-order blame ---------------------
//
// The decoders queue G1 subgroup checks and run them after the decode, so
// a later error (truncation, an off-curve point, an oversized count) is
// flagged first and the batched pass must replace it. Point k of every
// VO / update below is put outside the subgroup, for every k, and each of
// the three later faults must still come back as ReadG1's subgroup error.

void SigG1s(abs::Signature* sig, std::vector<crypto::G1*>* out) {
  out->push_back(&sig->y);
  out->push_back(&sig->w);
  for (crypto::G1& p : sig->s) out->push_back(&p);
}

abs::Signature* EntrySig(VoEntry* e) {
  if (auto* res = std::get_if<ResultEntry>(e)) return &res->app_sig;
  if (auto* rec = std::get_if<InaccessibleRecordEntry>(e)) return &rec->aps_sig;
  return &std::get<InaccessibleBoxEntry>(*e).aps_sig;
}

// The G1 points of a VO / update in wire order, and the signature whose
// G2 list ends the bytes.
struct VoPoints {
  static std::vector<crypto::G1*> G1s(Vo* vo) {
    std::vector<crypto::G1*> out;
    if (vo->stamp.attested) SigG1s(&vo->stamp.attestation, &out);
    for (VoEntry& e : vo->entries) SigG1s(EntrySig(&e), &out);
    return out;
  }
  static std::size_t LastG2Count(Vo vo) {
    return EntrySig(&vo.entries.back())->p.size();
  }
  static void Decode(common::ByteReader* r) {
    // discard-ok: only the reader's verdict is under test.
    (void)Vo::DeserializeRaw(r);
  }
};

struct UpdatePoints {
  static std::vector<crypto::G1*> G1s(SignedAdsUpdate* u) {
    std::vector<crypto::G1*> out;
    for (NodePatch& p : u->delta.nodes) SigG1s(&p.sig, &out);
    if (u->delta.stamp.attested) SigG1s(&u->delta.stamp.attestation, &out);
    SigG1s(&u->auth, &out);
    return out;
  }
  static std::size_t LastG2Count(const SignedAdsUpdate& u) {
    return u.auth.p.size();
  }
  static void Decode(common::ByteReader* r) {
    // discard-ok: only the reader's verdict is under test.
    (void)SignedAdsUpdate::DeserializeRaw(r);
  }
};

enum class LaterFault { kTruncation, kOffCurve, kOversizedCount };

// `obj`'s bytes with `fault` applied after its last G1 point.
template <typename T, typename Points>
std::vector<std::uint8_t> WithLaterFault(T obj, LaterFault fault) {
  if (fault == LaterFault::kOffCurve) {
    crypto::Fp x, y;
    crypto::G1Generator().ToAffine(&x, &y);
    *Points::G1s(&obj).back() =
        crypto::G1::FromAffine(x, y + crypto::Fp::One());
  }
  std::vector<std::uint8_t> b = Ser(obj);
  if (fault == LaterFault::kTruncation) b.pop_back();
  if (fault == LaterFault::kOversizedCount) {
    // The last signature's G2 count: every one of its points is finite.
    const std::size_t n = Points::LastG2Count(obj);
    const std::size_t off = b.size() - 4 - n * crypto::kG2Bytes;
    EXPECT_EQ(b[off], n);
    for (int i = 0; i < 4; ++i) b[off + i] = 0xff;
  }
  return b;
}

template <typename T, typename Points>
void ExpectSubgroupBlameWins(const T& base) {
  const crypto::G1 bad = crypto::hostile::NonSubgroupG1();
  T probe = base;
  const std::size_t n = Points::G1s(&probe).size();
  ASSERT_GE(n, 2u);
  const struct {
    LaterFault fault;
    common::WireError alone;
  } faults[] = {
      {LaterFault::kTruncation, common::WireError::kTruncated},
      {LaterFault::kOffCurve, common::WireError::kPointNotOnCurve},
      {LaterFault::kOversizedCount, common::WireError::kLengthOverflow},
  };
  for (const auto& f : faults) {
    // Alone, each fault is what the reader reports.
    std::vector<std::uint8_t> b = WithLaterFault<T, Points>(base, f.fault);
    common::ByteReader clean(b);
    Points::Decode(&clean);
    EXPECT_EQ(clean.error(), f.alone);
    // Behind a point outside the subgroup, the point wins.
    for (std::size_t k = 0; k + 1 < n; ++k) {
      T obj = base;
      *Points::G1s(&obj)[k] = bad;
      b = WithLaterFault<T, Points>(obj, f.fault);
      common::ByteReader r(b);
      Points::Decode(&r);
      EXPECT_EQ(r.error(), common::WireError::kPointNotInSubgroup)
          << "point " << k << " of " << n;
      EXPECT_STREQ(r.error_detail() ? r.error_detail() : "",
                   "G1 point outside prime-order subgroup");
    }
  }
}

TEST(AdmissionPrecedenceTest, VoSubgroupFaultBeatsLaterFaults) {
  ExpectSubgroupBlameWins<Vo, VoPoints>(GetEnv()->range_vo);
}

TEST(AdmissionPrecedenceTest, AdsUpdateSubgroupFaultBeatsLaterFaults) {
  common::ByteReader r(GetEnv()->update_bytes);
  const SignedAdsUpdate u = SignedAdsUpdate::DeserializeRaw(&r);
  ASSERT_TRUE(r.ok() && r.AtEnd());
  ExpectSubgroupBlameWins<SignedAdsUpdate, UpdatePoints>(u);
}

// --- kAdsUpdate payload: total decoding and unforgeable auth ----------------

// Strict deserialization of a SignedAdsUpdate from hostile bytes.
std::optional<SignedAdsUpdate> DeserUpdate(const std::vector<std::uint8_t>& b) {
  common::ByteReader r(b.data(), b.size());
  SignedAdsUpdate u = SignedAdsUpdate::DeserializeRaw(&r);
  if (!r.ok() || !r.AtEnd()) return std::nullopt;
  return u;
}

TEST(FaultInjectionTest, AdsUpdateBaselineDecodesAndAuthenticates) {
  FaultEnv* s = GetEnv();
  auto u = DeserUpdate(s->update_bytes);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->delta.from_epoch, 0u);
  EXPECT_EQ(u->delta.to_epoch, 1u);
  EXPECT_FALSE(u->delta.nodes.empty());
  EXPECT_TRUE(VerifyAdsUpdateAuth(s->mvk, *u));
}

TEST(FaultInjectionTest, AdsUpdateMutationSweepNeverForges) {
  // Same contract as the VO sweep: every mutated buffer either fails strict
  // decoding or fails the DO auth check — a mutated update that still
  // authenticates would let an on-path attacker steer the SP's tree.
  FaultEnv* s = GetEnv();
  const auto& donor = Ser(s->range_vo);  // cross-format splices
  common::MutRng rng(0xAD5D00Dull);
  int decoded = 0;
  constexpr int kMutations = 400;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::uint8_t> buf = s->update_bytes;
    common::MutationKind kind = common::Mutate(&buf, &rng, &donor);
    auto u = DeserUpdate(buf);
    if (!u.has_value()) continue;  // rejected totally, nothing half-read
    ++decoded;
    if (VerifyAdsUpdateAuth(s->mvk, *u)) {
      EXPECT_EQ(buf, s->update_bytes)
          << "mutation " << i << " (" << common::MutationKindName(kind)
          << ") authenticated as a different update";
    }
  }
  // Most mutations must fail to even decode; a mutator that cannot reach
  // the decoder is not exercising it.
  EXPECT_LT(decoded, kMutations / 2);
}

TEST(FaultInjectionTest, AdsUpdateTruncationAtEveryBoundaryRejected) {
  FaultEnv* s = GetEnv();
  for (std::size_t n = 0; n < s->update_bytes.size(); ++n) {
    std::vector<std::uint8_t> buf(s->update_bytes.begin(),
                                  s->update_bytes.begin() + n);
    EXPECT_FALSE(DeserUpdate(buf).has_value()) << "prefix " << n;
  }
}

TEST(FaultInjectionTest, AdsUpdateBadLeafKindTagRejected) {
  // leaf_kind is the 13th byte of the first patch (after the delta's two
  // epochs and the patch count, then level u32 + index u64).
  FaultEnv* s = GetEnv();
  std::vector<std::uint8_t> buf = s->update_bytes;
  std::size_t off = 8 + 8 + 4 + 4 + 8;
  ASSERT_LT(off, buf.size());
  buf[off] = 7;  // not a known leaf kind
  common::ByteReader r(buf.data(), buf.size());
  // discard-ok: the test only asserts that an unknown patch kind does
  // not crash the decoder; r.ok() carries the failure.
  (void)SignedAdsUpdate::DeserializeRaw(&r);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kMalformed);
}

// --- journal records: crash recovery never resurrects a tampered batch -----

struct ReplayOutcome {
  int records = 0;        // structurally valid records surfaced by the reader
  int applied = 0;        // records that decoded, authenticated, and applied
  bool rejected = false;  // a surfaced record failed decode / auth / apply
  std::uint64_t epoch = 0;
  crypto::Digest digest{};
};

// Mirrors the SpStateStore::Recover gate over an in-memory journal image:
// structural framing first, then the exact strict-decode + DO-auth +
// ApplyDelta pipeline the live server runs. Recovery may under-recover
// (torn tail loses the batch) but must never abort and must never let a
// tampered batch change the replica tree.
ReplayOutcome ReplayJournal(std::vector<std::uint8_t> image) {
  FaultEnv* s = GetEnv();
  common::MemFile file(std::move(image));
  common::JournalReader reader(&file);
  ReplayOutcome out;
  GridTree replica = *s->tree_r;
  for (;;) {
    common::Untrusted<common::JournalRecord> rec;
    if (reader.Next(&rec) != common::JournalReadStatus::kRecord) break;
    ++out.records;
    // untrusted-ok: the payload goes straight into the strict decoder and
    // the DO auth check below; nothing is trusted before both pass.
    auto u = DeserUpdate(rec.Unvalidated().payload);
    if (!u.has_value() || !VerifyAdsUpdateAuth(s->mvk, *u)) {
      out.rejected = true;  // recovery truncates here and stops
      break;
    }
    ApplyStatus st = replica.ApplyDelta(u->delta);
    if (st != ApplyStatus::kApplied && st != ApplyStatus::kAlreadyApplied) {
      out.rejected = true;
      break;
    }
    ++out.applied;
  }
  out.epoch = replica.epoch();
  out.digest = replica.digest();
  return out;
}

TEST(FaultInjectionTest, JournalBaselineReplaysToEpochOne) {
  FaultEnv* s = GetEnv();
  common::MemFile file;
  common::JournalWriter w(&file, 1);
  ASSERT_TRUE(w.Append(s->update_bytes));
  ReplayOutcome base = ReplayJournal(file.data());
  EXPECT_EQ(base.records, 1);
  EXPECT_EQ(base.applied, 1);
  EXPECT_FALSE(base.rejected);
  EXPECT_EQ(base.epoch, 1u);
}

TEST(FaultInjectionTest, JournalBitFlipSweepIsAlwaysStructuralDamage) {
  // Any single-bit flip — magic, seq, or length in the header, payload
  // bytes, or the checksum trailer — must be caught by the framing layer
  // itself: the reader yields zero records, so the authenticated decode
  // path never even sees the tampered payload. Header and trailer bytes
  // are swept exhaustively; the payload is sampled on a stride so the
  // test stays cheap regardless of update size.
  FaultEnv* s = GetEnv();
  const std::vector<std::uint8_t> clean =
      common::EncodeJournalRecord(1, s->update_bytes);
  ASSERT_GT(clean.size(),
            common::kJournalHeaderBytes + common::kJournalChecksumBytes);
  std::vector<std::size_t> positions;
  const std::size_t trailer = clean.size() - common::kJournalChecksumBytes;
  for (std::size_t b = 0; b < common::kJournalHeaderBytes; ++b)
    positions.push_back(b);
  const std::size_t stride =
      std::max<std::size_t>(1, (trailer - common::kJournalHeaderBytes) / 64);
  for (std::size_t b = common::kJournalHeaderBytes; b < trailer; b += stride)
    positions.push_back(b);
  for (std::size_t b = trailer; b < clean.size(); ++b) positions.push_back(b);

  for (std::size_t byte : positions) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> image = clean;
      image[byte] ^= static_cast<std::uint8_t>(1u << bit);
      common::MemFile f(std::move(image));
      common::JournalReader reader(&f);
      common::Untrusted<common::JournalRecord> rec;
      EXPECT_EQ(reader.Next(&rec), common::JournalReadStatus::kTornTail)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(common::TruncateJournalToValidPrefix(&f), 0u)
          << "byte " << byte << " bit " << bit;
      EXPECT_EQ(f.Size(), 0u);
    }
  }
}

TEST(FaultInjectionTest, JournalSeqReplayWithValidChecksumIsTornTail) {
  // A record whose checksum passes but whose sequence number replays an
  // earlier one is still structural damage: an attacker splicing a stale
  // record back in must not make recovery loop or resurrect old state.
  FaultEnv* s = GetEnv();
  std::vector<std::uint8_t> first =
      common::EncodeJournalRecord(2, s->update_bytes);
  const std::vector<std::uint8_t> replay =
      common::EncodeJournalRecord(1, s->update_bytes);
  const std::size_t first_size = first.size();
  first.insert(first.end(), replay.begin(), replay.end());
  common::MemFile f(std::move(first));
  common::JournalReader reader(&f);
  common::Untrusted<common::JournalRecord> rec;
  ASSERT_EQ(reader.Next(&rec), common::JournalReadStatus::kRecord);
  EXPECT_EQ(reader.Next(&rec), common::JournalReadStatus::kTornTail);
  EXPECT_EQ(common::TruncateJournalToValidPrefix(&f), 2u);
  EXPECT_EQ(f.Size(), first_size);  // the genuine head record survives
}

TEST(FaultInjectionTest, JournalMutationSweepNeverResurrectsTamperedBatch) {
  // The journal sits below the auth boundary: a mutated image may lose the
  // batch (torn tail) but whatever survives framing + decode + auth must
  // be byte-identical to the genuine update. Recovery can under-recover;
  // it can never diverge.
  FaultEnv* s = GetEnv();
  common::MemFile file;
  common::JournalWriter w(&file, 1);
  ASSERT_TRUE(w.Append(s->update_bytes));
  const std::vector<std::uint8_t> clean = file.data();
  const ReplayOutcome base = ReplayJournal(clean);
  ASSERT_EQ(base.applied, 1);

  const auto& donor = Ser(s->range_vo);  // cross-format splices
  common::MutRng rng(0x10AD5EEDull);
  constexpr int kMutations = 300;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::uint8_t> image = clean;
    common::MutationKind kind = common::Mutate(&image, &rng, &donor);
    ReplayOutcome out = ReplayJournal(image);
    if (out.applied > 0) {
      EXPECT_EQ(out.epoch, base.epoch)
          << "mutation " << i << " (" << common::MutationKindName(kind) << ")";
      EXPECT_TRUE(out.digest == base.digest)
          << "mutation " << i << " (" << common::MutationKindName(kind)
          << ") replayed to a divergent tree";
    } else {
      EXPECT_EQ(out.epoch, 0u)
          << "mutation " << i << " (" << common::MutationKindName(kind) << ")";
    }
  }
}

TEST(FaultInjectionTest, JournalTailGarbageKeepsTheHeadRecord) {
  // The random sweep above almost always damages the head record (every
  // one of its mutated images replays to epoch 0), so exercise the
  // survives-then-truncates path deterministically: garbage or a stale
  // duplicate appended after a genuine record is a torn tail, and the
  // head batch still replays to the reference tree.
  FaultEnv* s = GetEnv();
  const std::vector<std::uint8_t> clean =
      common::EncodeJournalRecord(1, s->update_bytes);
  const ReplayOutcome base = ReplayJournal(clean);
  ASSERT_EQ(base.applied, 1);

  const std::vector<std::uint8_t> garbage = Ser(s->range_vo);
  for (const auto& tail : {garbage, clean}) {
    std::vector<std::uint8_t> image = clean;
    image.insert(image.end(), tail.begin(), tail.end());
    ReplayOutcome out = ReplayJournal(image);
    EXPECT_EQ(out.records, 1);
    EXPECT_EQ(out.applied, 1);
    EXPECT_FALSE(out.rejected);
    EXPECT_EQ(out.epoch, base.epoch);
    EXPECT_TRUE(out.digest == base.digest);
  }
}

TEST(FaultInjectionTest, JournalTruncationAtEveryBoundaryNeverAborts) {
  // Crash truncation at any byte: recovery either keeps the whole record
  // (only at the exact full length) or truncates to the empty journal —
  // it never aborts and never yields a partial batch.
  FaultEnv* s = GetEnv();
  const std::vector<std::uint8_t> clean =
      common::EncodeJournalRecord(1, s->update_bytes);
  for (std::size_t n = 0; n <= clean.size(); ++n) {
    common::MemFile f(
        std::vector<std::uint8_t>(clean.begin(), clean.begin() + n));
    const std::uint64_t kept = common::TruncateJournalToValidPrefix(&f);
    if (n == clean.size()) {
      EXPECT_EQ(kept, 1u);
      EXPECT_EQ(f.Size(), clean.size());
    } else {
      EXPECT_EQ(kept, 0u) << "prefix " << n;
      EXPECT_EQ(f.Size(), 0u) << "prefix " << n;
    }
  }
}

TEST(FaultInjectionTest, AdsUpdateCountClampRejectedWithoutAllocating) {
  // Claim ~16M node patches in a few-KB buffer; CheckCount must refuse
  // before the patch vector reserves anything.
  FaultEnv* s = GetEnv();
  std::vector<std::uint8_t> buf = s->update_bytes;
  std::size_t off = 8 + 8;  // the count follows from_epoch and to_epoch
  buf[off + 0] = 0xff;
  buf[off + 1] = 0xff;
  buf[off + 2] = 0xff;
  buf[off + 3] = 0x00;
  common::ByteReader r(buf.data(), buf.size());
  SignedAdsUpdate u = SignedAdsUpdate::DeserializeRaw(&r);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error(), common::WireError::kLengthOverflow);
  EXPECT_TRUE(u.delta.nodes.empty());
}

}  // namespace
}  // namespace apqa::core
