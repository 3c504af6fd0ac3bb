// Table 2: equality query performance — accessible-record costs vs. max
// policy length, and inaccessible-record costs vs. inaccessible predicate
// length.
#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

namespace {

// A policy of exactly `length` leaves: OR of AND-pairs.
policy::Policy PolicyOfLength(int length) {
  std::vector<policy::Clause> clauses;
  for (int i = 0; i < length / 2; ++i) {
    clauses.push_back({"RoleP" + std::to_string(2 * i),
                       "RoleP" + std::to_string(2 * i + 1)});
  }
  if (clauses.empty()) clauses.push_back({"RoleP0"});
  return policy::Policy::FromDnfClauses(clauses);
}

}  // namespace

int main() {
  int reps = QueriesPerRow();
  PrintHeader("Table 2", "equality query performance (single APP/APS op)");

  // --- Accessible record: vary max policy length. -------------------------
  std::printf("\nAccessible record:\n");
  std::printf("%-18s | %-18s | %s\n", "Max Policy Length", "User CPU (ms)",
              "VO Size (KB)");
  std::vector<int> lengths =
      FastMode() ? std::vector<int>{6, 24} : std::vector<int>{6, 24, 96, 384};
  for (int length : lengths) {
    policy::Policy pol = PolicyOfLength(length);
    policy::RoleSet universe = pol.Roles();
    universe.insert(core::kPseudoRole);
    crypto::Rng rng(1);
    abs::MasterKey msk;
    abs::VerifyKey mvk;
    abs::Abs::Setup(&rng, &msk, &mvk);
    abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
    core::Record rec{core::Point{1}, "value", pol};
    auto sig = abs::Abs::Sign(mvk, sk, core::RecordMessage(rec.key, rec.value),
                              rec.policy, &rng);

    // User roles satisfying the first clause.
    policy::RoleSet user = {"RoleP0", "RoleP1"};
    double user_ms = 0, vo_kb = 0;
    auto msg = core::RecordMessage(rec.key, rec.value);
    for (int i = 0; i < reps; ++i) {
      Timer t;
      bool ok = abs::Abs::Verify(mvk, msg, pol, *sig);
      user_ms += t.ElapsedMs();
      if (!ok) return 1;
    }
    vo_kb = static_cast<double>(sig->SerializedSize() + rec.value.size() +
                                pol.ToString().size()) /
            1024.0;
    (void)user;
    std::printf("%-18d | %-18.1f | %.1f\n", length, user_ms / reps, vo_kb);
    std::fflush(stdout);
  }

  // --- Inaccessible record: vary inaccessible predicate length. -----------
  std::printf("\nInaccessible record:\n");
  std::printf("%-18s | %-14s | %-16s | %s\n", "Predicate Length",
              "SP CPU (ms)", "User CPU (ms)", "VO Size (KB)");
  std::vector<int> pred_lengths =
      FastMode() ? std::vector<int>{10, 20} : std::vector<int>{10, 20, 40, 80};
  for (int plen : pred_lengths) {
    // Universe sized so that |A \ user| = plen; the record needs a role the
    // user lacks.
    // |lacked| = (plen-1 roles the user lacks) + Role_∅ = plen.
    policy::RoleSet universe;
    for (int i = 0; i < plen; ++i) {
      universe.insert("RoleU" + std::to_string(i));
    }
    universe.insert(core::kPseudoRole);  // part of the lacked set
    crypto::Rng rng(2);
    abs::MasterKey msk;
    abs::VerifyKey mvk;
    abs::Abs::Setup(&rng, &msk, &mvk);
    abs::SigningKey sk = abs::Abs::KeyGen(msk, universe, &rng);
    policy::Policy pol = policy::Policy::Parse("RoleU0 & RoleU1");
    core::Record rec{core::Point{1}, "value", pol};
    auto sig = abs::Abs::Sign(mvk, sk, core::RecordMessage(rec.key, rec.value),
                              rec.policy, &rng);
    policy::RoleSet user = {"RoleU" + std::to_string(plen - 1)};
    policy::RoleSet lacked = core::SuperPolicyRoles(universe, user);
    if (static_cast<int>(lacked.size()) != plen) {
      std::fprintf(stderr, "predicate sizing bug: %zu\n", lacked.size());
    }

    double sp_ms = 0, user_ms = 0, vo_kb = 0;
    auto msg = core::RecordMessage(rec.key, rec.value);
    policy::Policy super_policy = policy::Policy::OrOfRoles(lacked);
    for (int i = 0; i < reps; ++i) {
      Timer t;
      auto aps = abs::Abs::Relax(mvk, *sig, pol, msg, lacked, &rng);
      sp_ms += t.ElapsedMs();
      t.Reset();
      bool ok = abs::Abs::Verify(mvk, msg, super_policy, *aps);
      user_ms += t.ElapsedMs();
      if (!ok) return 1;
      vo_kb = static_cast<double>(aps->SerializedSize() + 32) / 1024.0;
    }
    std::printf("%-18d | %-14.1f | %-16.1f | %.1f\n",
                static_cast<int>(lacked.size()),
                sp_ms / reps, user_ms / reps, vo_kb);
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper): every cost column grows roughly\n"
              "linearly with the policy/predicate length.\n");
  return 0;
}
