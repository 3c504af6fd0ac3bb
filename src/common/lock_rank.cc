#include "common/lock_rank.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace apqa::common {

const char* LockRankName(LockRank r) {
  switch (r) {
    case LockRank::kServerSessions: return "server-sessions";
    case LockRank::kServerSp: return "server-sp";
    case LockRank::kThreadPool: return "thread-pool";
    case LockRank::kSigningBuild: return "signing-build";
    case LockRank::kTransportFault: return "transport-fault";
    case LockRank::kTransportPipe: return "transport-pipe";
    case LockRank::kTransportSendRecv: return "transport-send-recv";
    case LockRank::kTransportState: return "transport-state";
  }
  return "?";
}

namespace lockdep {

namespace {

std::atomic<ViolationHandler> g_handler{nullptr};
std::atomic<std::uint64_t> g_violations{0};

#ifdef APQA_LOCKDEP
// Ranks held by this thread, in acquisition order. Acquisition in strictly
// increasing rank keeps the stack sorted, so back() is the maximum held.
thread_local std::vector<LockRank> t_held;
#endif

}  // namespace

void SetViolationHandlerForTest(ViolationHandler handler) {
  g_handler.store(handler, std::memory_order_release);
}

std::uint64_t ViolationCount() {
  return g_violations.load(std::memory_order_acquire);
}

std::size_t HeldCount() {
#ifdef APQA_LOCKDEP
  return t_held.size();
#else
  return 0;
#endif
}

#ifdef APQA_LOCKDEP

void OnAcquire(LockRank r) {
  if (!t_held.empty() && t_held.back() >= r) {
    g_violations.fetch_add(1, std::memory_order_acq_rel);
    ViolationHandler handler = g_handler.load(std::memory_order_acquire);
    if (handler != nullptr) {
      handler(t_held.back(), r);
    } else {
      std::fprintf(stderr,
                   "lockdep: rank inversion: acquiring %s(%d) while holding "
                   "%s(%d) — see the rank table in common/lock_rank.h\n",
                   LockRankName(r), static_cast<int>(r),
                   LockRankName(t_held.back()),
                   static_cast<int>(t_held.back()));
      std::abort();
    }
  }
  // Sorted insert keeps back() the maximum even after a tolerated violation
  // (a test handler that returns instead of aborting).
  t_held.insert(std::upper_bound(t_held.begin(), t_held.end(), r), r);
}

void OnRelease(LockRank r) {
  // Unlock order is usually LIFO but std::mutex does not require it; drop
  // the most recent matching rank.
  for (std::size_t i = t_held.size(); i-- > 0;) {
    if (t_held[i] == r) {
      t_held.erase(t_held.begin() + static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

#else

void OnAcquire(LockRank) {}
void OnRelease(LockRank) {}

#endif  // APQA_LOCKDEP

}  // namespace lockdep

}  // namespace apqa::common
