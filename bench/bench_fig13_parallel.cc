// Figure 13: acceleration by parallelism (§8.2) — SP range query time vs.
// number of worker threads mapping the independent ABS.Relax jobs.
//
// NOTE: on a 4-vCPU x86-64 VM, unlike the paper's 24-thread blade server,
// the wall-clock speedup is bounded by 4; the bench prints the host's
// hardware concurrency next to the per-thread-count wall times (see
// EXPERIMENTS.md).
//
// Contention guard: a speedup only says something about the pool when its
// threads actually ran. Each row also records the process CPU time
// (getrusage) over its queries and cpu_util = CPU / wall, the average
// number of busy cores. A row whose cpu_util is below half of
// min(threads, hardware_concurrency) is marked contended: the host (or a
// serial stretch of the query) kept the threads from running, and its
// speedup is recorded but is not a reading of the pool.
//
// With --json=PATH (or APQA_BENCH_JSON) each thread count T writes
// sp_ms_tT (ms), cpu_util_tT (x), speedup_tT (x, against one thread) and
// contended_tT (count, 1 when contended) under the bench "fig13_parallel".
#include <sys/resource.h>

#include <algorithm>
#include <string>
#include <thread>

#include "bench_util.h"

using namespace apqa;
using namespace apqa::bench;

namespace {

// User plus system CPU of every thread of this process, in ms.
double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

}  // namespace

int main(int argc, char** argv) {
  EnableJsonFromArgs(argc, argv);
  PrintHeader("Figure 13", "SP query time vs. number of threads");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("hardware_concurrency=%u\n\n", hw);
  DeployConfig cfg;
  tpch::PolicyGen pgen(cfg.num_policies, cfg.num_roles, cfg.or_fan,
                       cfg.and_fan, cfg.seed);
  tpch::TpchGen gen(cfg.tpch_scale, cfg.seed);
  auto records =
      tpch::LineitemRecords(gen.Lineitem(), cfg.domain, pgen.policies());
  core::DataOwner owner(pgen.universe(), cfg.domain, cfg.seed);
  core::GridTree tree = owner.BuildAds(records);
  policy::RoleSet roles = pgen.RolesForAccessFraction(0.2);

  int queries = QueriesPerRow();
  double sel = 0.08;
  std::printf("%-8s | %-16s | %-8s | %-8s\n", "Threads", "SP wall (ms)",
              "CPU/wall", "speedup");
  std::vector<int> thread_counts =
      FastMode() ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8, 16};
  double one_thread_ms = 0;
  for (int threads : thread_counts) {
    core::ServiceProvider sp(owner.keys(), tree, threads);
    crypto::Rng qrng(7);
    double sp_ms = 0, cpu_ms = 0;
    for (int q = 0; q < queries; ++q) {
      core::Box range =
          tpch::RandomRangeQuery(owner.keys().domain, sel, &qrng);
      const double cpu0 = ProcessCpuMs();
      Timer t;
      core::Vo vo = sp.RangeQuery(range, roles);
      sp_ms += t.ElapsedMs();
      cpu_ms += ProcessCpuMs() - cpu0;
      (void)vo;
    }
    const double cpu_util = cpu_ms / sp_ms;
    if (threads == 1) one_thread_ms = sp_ms;
    const double speedup = one_thread_ms / sp_ms;
    const bool contended =
        cpu_util < 0.5 * std::min<double>(threads, static_cast<double>(hw));
    std::printf("%-8d | %-16.0f | %-8.2f | %-8.2f%s\n", threads,
                sp_ms / queries, cpu_util, speedup,
                contended ? "  (contended: threads did not run)" : "");
    std::fflush(stdout);
    const std::string t = "_t" + std::to_string(threads);
    RecordJson("fig13_parallel", "sp_ms" + t, sp_ms / queries, "ms");
    RecordJson("fig13_parallel", "cpu_util" + t, cpu_util, "x");
    RecordJson("fig13_parallel", "speedup" + t, speedup, "x");
    RecordJson("fig13_parallel", "contended" + t, contended ? 1 : 0, "count");
  }
  std::printf("\nExpected shape (paper Fig 13, on multi-core hardware):\n"
              "near-linear speedup up to ~16 threads, flattening beyond as\n"
              "the serial fraction and I/O dominate. On a 4-vCPU x86-64\n"
              "VM at most four relax jobs run at once, so the curve can\n"
              "only fall up to 4 threads and is flat beyond.\n");
  return 0;
}
