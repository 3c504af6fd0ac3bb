// Quickstart: the minimal end-to-end APQA flow.
//
//   1. The data owner (DO) sets up keys and signs an access-controlled
//      table into the AP²G-tree ADS.
//   2. The service provider (SP) answers an equality and a range query,
//      attaching verification objects (VOs).
//   3. The user verifies soundness and completeness — and learns *nothing*
//      about records it may not access, not even whether they exist.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/system.h"

using namespace apqa;
using namespace apqa::core;

int main() {
  // --- 1. Data owner setup -------------------------------------------------
  Domain domain{/*dims=*/1, /*bits=*/4};  // keys 0..15
  DataOwner owner(/*role_universe=*/{"Doctor", "Nurse", "Researcher"}, domain,
                  /*seed=*/2018);

  std::vector<Record> table = {
      {{3}, "patient:alice,diagnosis:flu", Policy::Parse("Doctor | Nurse")},
      {{5}, "patient:bob,diagnosis:cancer", Policy::Parse("Doctor")},
      {{9}, "aggregate:cohort-7", Policy::Parse("Researcher | Doctor")},
      {{12}, "patient:carol,diagnosis:cold", Policy::Parse("Nurse")},
  };
  std::printf("DO: signing %zu records into the AP2G-tree...\n", table.size());
  ServiceProvider sp(owner.keys(), owner.BuildAds(table));

  // --- 2. Enroll users -----------------------------------------------------
  User nurse(owner.keys(), owner.EnrollUser({"Nurse"}));
  User doctor(owner.keys(), owner.EnrollUser({"Doctor"}));

  // --- 3. Equality query ---------------------------------------------------
  // The nurse asks for key 5 (Doctor-only record): the VO proves the query
  // has no accessible answer without revealing whether a record exists.
  Vo vo = sp.EqualityQuery({5}, nurse.roles());
  bool accessible = false;
  Record result;
  if (VerifyResult r = nurse.VerifyEquality({5}, vo, &result, &accessible);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("nurse  key=5  -> verified, accessible=%s\n",
              accessible ? "yes" : "no (existence hidden)");

  vo = sp.EqualityQuery({5}, doctor.roles());
  if (VerifyResult r = doctor.VerifyEquality({5}, vo, &result, &accessible);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("doctor key=5  -> verified, accessible=%s, value=\"%s\"\n",
              accessible ? "yes" : "no", result.value.c_str());

  // --- 4. Range query ------------------------------------------------------
  Box range{{2}, {12}};
  Vo range_vo = sp.RangeQuery(range, nurse.roles());
  std::vector<Record> results;
  if (VerifyResult r = nurse.VerifyRange(range, range_vo, &results);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("nurse  range [2,12] -> verified, %zu accessible records:\n",
              results.size());
  for (const auto& r : results) {
    std::printf("    key=%u  %s\n", r.key[0], r.value.c_str());
  }
  std::printf("    (VO: %zu entries, %zu bytes)\n", range_vo.entries.size(),
              range_vo.SerializedSize());

  // --- 5. Tamper detection -------------------------------------------------
  Vo tampered = range_vo;
  for (auto& e : tampered.entries) {
    if (auto* res = std::get_if<ResultEntry>(&e)) {
      res->value = "patient:alice,diagnosis:ALTERED";
      break;
    }
  }
  VerifyResult verdict = nurse.VerifyRange(range, tampered, nullptr);
  bool caught = !verdict.ok();
  std::printf("tampered VO rejected: %s (%s)\n", caught ? "yes" : "NO!",
              verdict.ToString().c_str());
  return caught ? 0 : 1;
}
