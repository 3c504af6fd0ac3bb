// Table 1: DO setup overhead — APP signing time, index build time, and
// index size (tree structure + signatures) vs. database scale.
//
// With --json=PATH (or APQA_BENCH_JSON=PATH) it writes the rows
// sign_s_scale<s>, build_s_scale<s> (seconds) and index_mb_scale<s> (MiB)
// of bench "table1_setup" for every scale s.
#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

int main(int argc, char** argv) {
  EnableJsonFromArgs(argc, argv);
  PrintHeader("Table 1", "DO setup overhead for generating the AP2G-tree");
  std::printf("%-8s | %-8s | %-13s | %-15s | %s\n", "Scale", "Records",
              "Sign APPs (s)", "Build Index (s)", "Index Size MB (tree+sigs)");

  std::vector<double> scales = FastMode()
                                   ? std::vector<double>{0.1, 0.3}
                                   : std::vector<double>{0.1, 0.3, 1.0, 3.0};
  for (double scale : scales) {
    DeployConfig cfg;
    cfg.tpch_scale = scale;
    tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                         cfg.and_fan, cfg.seed);
    tpch::TpchGen gen(scale, cfg.seed);
    auto records =
        tpch::LineitemRecords(gen.Lineitem(), cfg.domain, pgen.policies());
    core::DataOwner owner(pgen.universe(), cfg.domain, cfg.seed);

    // Isolate APP signing (leaves) from index construction (internal node
    // policies + signatures): sign the records standalone through one
    // signing stage first, then build the full index on a four-thread
    // pool, as the service benchmark builds it.
    Timer sign_timer;
    crypto::Rng sign_rng(cfg.seed + 1);
    std::vector<abs::Signature> apps(records.size());
    abs::SignBatch batch(
        [&apps](std::size_t i) -> abs::Signature& { return apps[i]; });
    for (const auto& r : records) {
      core::SignApp(&batch, owner.keys().mvk, owner.signing_key(),
                    core::RecordMessage(r.key, r.value), r.policy, &sign_rng);
    }
    batch.Run();
    double sign_s = sign_timer.ElapsedMs() / 1000.0;

    core::ThreadPool pool(4);
    Timer build_timer;
    core::GridTree tree = owner.BuildAds(records, &pool);
    double build_s = build_timer.ElapsedMs() / 1000.0;

    std::size_t structure = 0, sigs = 0;
    tree.SerializedSize(&structure, &sigs);
    const double index_mb =
        static_cast<double>(structure + sigs) / (1024 * 1024);
    std::printf("%-8.1f | %-8zu | %-13.2f | %-15.2f | %.2f (%.2f + %.2f)\n",
                scale, records.size(), sign_s, build_s, index_mb,
                static_cast<double>(structure) / (1024 * 1024),
                static_cast<double>(sigs) / (1024 * 1024));
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "_scale%g", scale);
    RecordJson("table1_setup", std::string("sign_s") + suffix, sign_s, "s");
    RecordJson("table1_setup", std::string("build_s") + suffix, build_s, "s");
    RecordJson("table1_setup", std::string("index_mb") + suffix, index_mb,
               "MiB");
    std::fflush(stdout);
  }
  std::printf("\nExpected shape (paper): both CPU time and index size grow\n"
              "sublinearly with scale — the fixed-size full grid saturates.\n");
  return 0;
}
