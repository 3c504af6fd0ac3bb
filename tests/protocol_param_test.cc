// Parameterized property tests: across domain shapes, policy mixes and user
// role sets, the authenticated range/equality protocol must return exactly
// the brute-force accessible filter and always verify.
#include <gtest/gtest.h>

#include "core/kd_tree.h"
#include "core/system.h"
#include "tpch/tpch.h"
#include "verify_ok.h"

namespace apqa::core {
namespace {

struct ParamCase {
  int dims;
  int bits;
  int num_records;
  int num_policies;
  int num_roles;
  double access_fraction;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const ParamCase& c) {
    return os << c.dims << "d_b" << c.bits << "_n" << c.num_records << "_p"
              << c.num_policies << "_r" << c.num_roles << "_s" << c.seed;
  }
};

class RangeProtocolP : public ::testing::TestWithParam<ParamCase> {};

TEST_P(RangeProtocolP, ResultsMatchBruteForceAndVerify) {
  const ParamCase& pc = GetParam();
  Domain domain{pc.dims, pc.bits};
  tpch::PolicyGen pgen(pc.num_policies, pc.num_roles, 3, 2, pc.seed);
  crypto::Rng rng(pc.seed);

  // Random records on distinct keys.
  std::set<Point> keys;
  std::vector<Record> records;
  while (static_cast<int>(records.size()) < pc.num_records) {
    Point key;
    for (int d = 0; d < pc.dims; ++d) {
      key.push_back(static_cast<std::uint32_t>(rng.NextU64()) %
                    domain.SideLength());
    }
    if (!keys.insert(key).second) continue;
    Record r;
    r.key = key;
    r.value = "val" + std::to_string(records.size());
    r.policy = pgen.PolicyForKey(key);
    records.push_back(std::move(r));
  }

  DataOwner owner(pgen.universe(), domain, pc.seed);
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  RoleSet roles = pgen.RolesForAccessFraction(pc.access_fraction);
  User user(owner.keys(), owner.EnrollUser(roles));

  for (int q = 0; q < 3; ++q) {
    Box range = tpch::RandomRangeQuery(domain, 0.3, &rng);
    Vo vo = sp.RangeQuery(range, roles);
    std::vector<Record> results;
    ASSERT_TRUE(VerifyOk(user.VerifyRange(range, vo, &results)));

    std::set<Point> expect;
    for (const Record& r : records) {
      if (range.Contains(r.key) && r.policy.Evaluate(roles)) {
        expect.insert(r.key);
      }
    }
    std::set<Point> got;
    for (const Record& r : results) got.insert(r.key);
    EXPECT_EQ(got, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RangeProtocolP,
    ::testing::Values(ParamCase{1, 3, 4, 4, 5, 0.3, 1},
                      ParamCase{1, 4, 8, 6, 6, 0.2, 2},
                      ParamCase{2, 2, 6, 4, 5, 0.3, 3},
                      ParamCase{2, 3, 10, 8, 8, 0.2, 4},
                      ParamCase{3, 2, 12, 6, 6, 0.25, 5},
                      ParamCase{1, 4, 0, 4, 5, 0.3, 6},   // empty database
                      ParamCase{1, 3, 8, 1, 3, 0.9, 7}),  // single policy
    [](const ::testing::TestParamInfo<ParamCase>& pinfo) {
      std::ostringstream os;
      os << pinfo.param;
      return os.str();
    });

// The zero-knowledge AP²G-tree and the relaxed-model AP²kd-tree must return
// identical result sets for the same queries.
class GridKdEquivalenceP : public ::testing::TestWithParam<ParamCase> {};

TEST_P(GridKdEquivalenceP, SameResultsBothVerify) {
  const ParamCase& pc = GetParam();
  Domain domain{pc.dims, pc.bits};
  tpch::PolicyGen pgen(pc.num_policies, pc.num_roles, 3, 2, pc.seed);
  crypto::Rng rng(pc.seed);
  std::set<Point> keys;
  std::vector<Record> records;
  while (static_cast<int>(records.size()) < pc.num_records) {
    Point key;
    for (int d = 0; d < pc.dims; ++d) {
      key.push_back(static_cast<std::uint32_t>(rng.NextU64()) %
                    domain.SideLength());
    }
    if (!keys.insert(key).second) continue;
    records.push_back(
        Record{key, "v" + std::to_string(records.size()),
               pgen.PolicyForKey(key)});
  }
  DataOwner owner(pgen.universe(), domain, pc.seed);
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  KdTree kd = KdTree::Build(owner.keys().mvk, owner.signing_key(), domain,
                            records, owner.rng());
  RoleSet roles = pgen.RolesForAccessFraction(pc.access_fraction);
  User user(owner.keys(), owner.EnrollUser(roles));

  for (int q = 0; q < 2; ++q) {
    Box range = tpch::RandomRangeQuery(domain, 0.4, &rng);
    Vo gvo = sp.RangeQuery(range, roles);
    KdVo kvo = BuildKdRangeVo(kd, owner.keys().mvk, range, roles,
                              owner.keys().universe, &rng);
    std::vector<Record> r1, r2;
    ASSERT_TRUE(VerifyOk(user.VerifyRange(range, gvo, &r1)));
    ASSERT_TRUE(VerifyOk(VerifyKdRangeVo(user.Context(), range, kvo, &r2)));
    std::set<Point> k1, k2;
    for (const auto& r : r1) k1.insert(r.key);
    for (const auto& r : r2) k2.insert(r.key);
    EXPECT_EQ(k1, k2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridKdEquivalenceP,
    ::testing::Values(ParamCase{1, 4, 6, 4, 5, 0.3, 21},
                      ParamCase{2, 3, 8, 6, 6, 0.25, 22},
                      ParamCase{2, 2, 5, 4, 5, 0.4, 23}),
    [](const ::testing::TestParamInfo<ParamCase>& pinfo) {
      std::ostringstream os;
      os << pinfo.param;
      return os.str();
    });

class EqualityProtocolP : public ::testing::TestWithParam<ParamCase> {};

TEST_P(EqualityProtocolP, EveryKeyVerifiesWithCorrectOutcome) {
  const ParamCase& pc = GetParam();
  Domain domain{pc.dims, pc.bits};
  tpch::PolicyGen pgen(pc.num_policies, pc.num_roles, 3, 2, pc.seed);
  crypto::Rng rng(pc.seed);
  std::map<Point, Record> by_key;
  while (static_cast<int>(by_key.size()) < pc.num_records) {
    Point key{static_cast<std::uint32_t>(rng.NextU64()) % domain.SideLength()};
    Record r{key, "v", pgen.PolicyForKey(key)};
    by_key.emplace(key, std::move(r));
  }
  std::vector<Record> records;
  for (auto& [k, r] : by_key) records.push_back(r);

  DataOwner owner(pgen.universe(), domain, pc.seed);
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));
  RoleSet roles = pgen.RolesForAccessFraction(pc.access_fraction);
  User user(owner.keys(), owner.EnrollUser(roles));

  for (std::uint32_t k = 0; k < domain.SideLength(); ++k) {
    Point key{k};
    Vo vo = sp.EqualityQuery(key, roles);
    bool accessible = false;
    Record result;
    ASSERT_TRUE(VerifyOk(user.VerifyEquality(key, vo, &result, &accessible)))
        << "key " << k;
    auto it = by_key.find(key);
    bool expect_accessible =
        it != by_key.end() && it->second.policy.Evaluate(roles);
    EXPECT_EQ(accessible, expect_accessible) << "key " << k;
    if (expect_accessible) {
      EXPECT_EQ(result.value, it->second.value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EqualityProtocolP,
    ::testing::Values(ParamCase{1, 3, 4, 4, 5, 0.3, 11},
                      ParamCase{1, 4, 10, 6, 6, 0.2, 12},
                      ParamCase{1, 3, 0, 4, 5, 0.5, 13}),
    [](const ::testing::TestParamInfo<ParamCase>& pinfo) {
      std::ostringstream os;
      os << pinfo.param;
      return os.str();
    });

}  // namespace
}  // namespace apqa::core
