// Continuous query attributes under the relaxed model (§9.2): an outsourced
// trade log keyed by (continuous) timestamps.
//
// Under access-policy confidentiality (zero-knowledge relaxed), the DO signs
// pseudo *regions* for the gaps between trades instead of one pseudo record
// per possible timestamp — the ADS is data-sized, not domain-sized. Gap APS
// signatures prove "no trade in (t1, t2)", record APS signatures prove
// "there is a trade here you may not see" without revealing why.
#include <cstdio>

#include "core/continuous.h"

using namespace apqa;
using namespace apqa::core;

int main() {
  crypto::Rng rng(99);
  abs::MasterKey msk;
  abs::VerifyKey mvk;
  abs::Abs::Setup(&rng, &msk, &mvk);

  policy::RoleSet universe = {"Trader", "Compliance", "Auditor"};
  policy::RoleSet key_universe = universe;
  key_universe.insert(kPseudoRole);
  abs::SigningKey sk_do = abs::Abs::KeyGen(msk, key_universe, &rng);

  // Trades at microsecond timestamps; compliance-only entries interleaved.
  std::vector<ContinuousRecord> trades = {
      {1'000'001, "BUY 100 ACME @ 17.20", Policy::Parse("Trader | Auditor")},
      {1'000'047, "SELL 40 ACME @ 17.25", Policy::Parse("Trader | Auditor")},
      {1'000'048, "FLAG wash-trade suspect", Policy::Parse("Compliance")},
      {1'002'130, "BUY 5000 ACME @ 17.90", Policy::Parse("Compliance | Auditor")},
      {1'009'999, "SELL 100 ACME @ 18.01", Policy::Parse("Trader | Auditor")},
  };
  std::printf("DO: signing %zu trades + %zu gap regions...\n", trades.size(),
              trades.size() + 1);
  ContinuousAds ads = ContinuousAds::Build(mvk, sk_do, trades, &rng);
  std::printf("ADS size: %.1f KB\n\n", ads.SerializedSizeBytes() / 1024.0);

  policy::RoleSet trader = {"Trader"};
  // The continuous key space is u64, so the grid domain goes unused.
  VerifyContext ctx(mvk, Domain{}, trader, universe);

  // Range query over the first millisecond.
  ContinuousVo vo = BuildContinuousRangeVo(ads, mvk, 1'000'000, 1'001'000,
                                           trader, universe, &rng);
  std::vector<ContinuousRecord> results;
  if (VerifyResult r =
          VerifyContinuousRangeVo(ctx, 1'000'000, 1'001'000, vo, &results);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("trader range [1000000, 1001000]: verified\n");
  for (const auto& r : results) {
    std::printf("    t=%llu  %s\n", static_cast<unsigned long long>(r.key),
                r.value.c_str());
  }
  std::printf("    + %zu hidden trades, %zu empty-gap proofs\n\n",
              vo.inaccessible.size(), vo.gaps.size());

  // Equality query on an exact timestamp with no trade: the range [t, t],
  // whose one gap entry proves absence (the relaxed model discloses
  // distribution knowledge).
  ContinuousVo evo = BuildContinuousRangeVo(ads, mvk, 1'005'000, 1'005'000,
                                            trader, universe, &rng);
  results.clear();
  if (VerifyResult r =
          VerifyContinuousRangeVo(ctx, 1'005'000, 1'005'000, evo, &results);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  std::printf("equality t=1005000: verified, %s\n",
              !results.empty() ? "trade found" : "proven absent (gap)");

  // The compliance flag at t=1000048 is invisible to the trader but its
  // *presence in the timeline* is provable — that is exactly the §9.2
  // trade-off versus the zero-knowledge grid.
  ContinuousVo fvo = BuildContinuousRangeVo(ads, mvk, 1'000'048, 1'000'048,
                                            trader, universe, &rng);
  results.clear();
  if (VerifyResult r =
          VerifyContinuousRangeVo(ctx, 1'000'048, 1'000'048, fvo, &results);
      !r.ok()) {
    std::printf("VERIFICATION FAILED: %s\n", r.ToString().c_str());
    return 1;
  }
  const char* outcome = "proven absent (gap)";
  if (!results.empty()) {
    outcome = "trade visible";
  } else if (!fvo.inaccessible.empty()) {
    outcome = "a record exists but is inaccessible";
  }
  std::printf("equality t=1000048: verified, %s\n", outcome);
  return 0;
}
