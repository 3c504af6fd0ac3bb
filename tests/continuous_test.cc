// Tests for continuous query attributes under the relaxed model (§9.2).
#include <gtest/gtest.h>

#include "core/continuous.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

class ContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(321);
    abs::Abs::Setup(rng_.get(), &msk_, &mvk_);
    universe_ = {"RoleA", "RoleB"};
    RoleSet all = universe_;
    all.insert(kPseudoRole);
    sk_ = abs::Abs::KeyGen(msk_, all, rng_.get());
    std::vector<ContinuousRecord> records = {
        {100, "v100", Policy::Parse("RoleA")},
        {250, "v250", Policy::Parse("RoleB")},
        {251, "v251", Policy::Parse("RoleA & RoleB")},
        {900, "v900", Policy::Parse("RoleA | RoleB")},
    };
    ads_ = std::make_unique<ContinuousAds>(
        ContinuousAds::Build(mvk_, sk_, records, rng_.get()));
  }

  // The continuous key space is u64, so the grid domain goes unused.
  VerifyContext Ctx(const RoleSet& user) const {
    return VerifyContext(mvk_, Domain{}, user, universe_);
  }

  std::unique_ptr<Rng> rng_;
  abs::MasterKey msk_;
  abs::VerifyKey mvk_;
  RoleSet universe_;
  abs::SigningKey sk_;
  std::unique_ptr<ContinuousAds> ads_;
};

TEST_F(ContinuousTest, AdsHasGapsAroundEveryRecord) {
  EXPECT_EQ(ads_->records().size(), 4u);
  EXPECT_EQ(ads_->gaps().size(), 5u);
  EXPECT_EQ(ads_->gaps().front().gap.lo, 0u);
  EXPECT_EQ(ads_->gaps().back().gap.hi, UINT64_MAX);
}

TEST_F(ContinuousTest, RangeQueryRoundTrip) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 50, 500, user,
                                           universe_, rng_.get());
  std::vector<ContinuousRecord> results;
  ASSERT_TRUE(
      VerifyOk(VerifyContinuousRangeVo(Ctx(user), 50, 500, vo, &results)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, 100u);
  // 250 (RoleB) and 251 (A&B) are inaccessible entries.
  EXPECT_EQ(vo.inaccessible.size(), 2u);
}

TEST_F(ContinuousTest, AdjacentKeysNoGapBetween) {
  // Keys 250 and 251 are adjacent: the gap (250, 251) is empty and should
  // never be required for coverage.
  RoleSet user = {"RoleA", "RoleB"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 249, 252, user,
                                           universe_, rng_.get());
  ASSERT_TRUE(
      VerifyOk(VerifyContinuousRangeVo(Ctx(user), 249, 252, vo, nullptr)));
}

TEST_F(ContinuousTest, RangeRejectsDroppedRecord) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 50, 500, user,
                                           universe_, rng_.get());
  ContinuousVo bad = vo;
  bad.results.clear();  // hide the accessible record
  EXPECT_FALSE(VerifyContinuousRangeVo(Ctx(user), 50, 500, bad, nullptr));
}

TEST_F(ContinuousTest, RangeRejectsDroppedGap) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 50, 500, user,
                                           universe_, rng_.get());
  ContinuousVo bad = vo;
  ASSERT_FALSE(bad.gaps.empty());
  bad.gaps.pop_back();
  EXPECT_FALSE(VerifyContinuousRangeVo(Ctx(user), 50, 500, bad, nullptr));
}

// An equality query on key k is the range query [k, k]: its VO is one
// entry, the record or the one gap that contains k.
TEST_F(ContinuousTest, EqualityOnExistingAccessibleKey) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 100, 100, user,
                                           universe_, rng_.get());
  EXPECT_EQ(vo.results.size(), 1u);
  std::vector<ContinuousRecord> results;
  ASSERT_TRUE(
      VerifyOk(VerifyContinuousRangeVo(Ctx(user), 100, 100, vo, &results)));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].value, "v100");
}

TEST_F(ContinuousTest, EqualityOnInaccessibleKey) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 250, 250, user,
                                           universe_, rng_.get());
  EXPECT_EQ(vo.inaccessible.size(), 1u);
  EXPECT_TRUE(vo.results.empty());
  EXPECT_TRUE(vo.gaps.empty());
  std::vector<ContinuousRecord> results;
  ASSERT_TRUE(
      VerifyOk(VerifyContinuousRangeVo(Ctx(user), 250, 250, vo, &results)));
  EXPECT_TRUE(results.empty());
}

TEST_F(ContinuousTest, EqualityOnAbsentKeyProvenByGap) {
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 500, 500, user,
                                           universe_, rng_.get());
  ASSERT_EQ(vo.gaps.size(), 1u);
  EXPECT_TRUE(vo.results.empty());
  EXPECT_TRUE(vo.inaccessible.empty());
  std::vector<ContinuousRecord> results;
  ASSERT_TRUE(
      VerifyOk(VerifyContinuousRangeVo(Ctx(user), 500, 500, vo, &results)));
  EXPECT_TRUE(results.empty());
  // The gap VO for key 500 does not prove absence of key 2000.
  VerifyResult r = VerifyContinuousRangeVo(Ctx(user), 2000, 2000, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kRegionOutsideRange) << r.ToString();
}

TEST_F(ContinuousTest, GapVoCannotHideRecord) {
  // SP returns the gap (251, 900) for a query on key 500 — valid. But for a
  // query on key 900 (existing record) the same gap is rejected.
  RoleSet user = {"RoleA"};
  ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, 500, 500, user,
                                           universe_, rng_.get());
  VerifyResult r = VerifyContinuousRangeVo(Ctx(user), 900, 900, vo, nullptr);
  EXPECT_EQ(r.code, VerifyCode::kRegionOutsideRange) << r.ToString();
}

// A record VO answered for another key names the key as outside the range,
// whether the record is accessible or not.
TEST_F(ContinuousTest, EqualityRecordVoRejectedForOtherKey) {
  RoleSet user = {"RoleA"};
  for (std::uint64_t key : {100u, 250u}) {
    ContinuousVo vo = BuildContinuousRangeVo(*ads_, mvk_, key, key, user,
                                             universe_, rng_.get());
    VerifyResult r =
        VerifyContinuousRangeVo(Ctx(user), key + 1, key + 1, vo, nullptr);
    EXPECT_EQ(r.code, VerifyCode::kRegionOutsideRange) << key;
    EXPECT_EQ(r.entry_index, 0) << key;
  }
}

}  // namespace
}  // namespace apqa::core
