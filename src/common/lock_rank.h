// Lock-rank validation (lockdep) for the service runtime.
//
// Every mutex in the tree is a RankedMutex<LockRank>, and the rank table
// below is the single documented lock order (DESIGN.md "Static analysis"):
// a thread may only acquire a lock of *strictly greater* rank than any lock
// it already holds. Out-of-order acquisition — the raw material of every
// lock-order-inversion deadlock — is detected at the first occurrence on
// any schedule, not just the schedule that happens to deadlock.
//
// Cost model: under APQA_LOCKDEP (TSan/Debug builds, see CMakeLists.txt)
// every lock/unlock pushes/pops a thread-local rank stack and checks the
// ordering invariant. Without the macro, RankedMutex compiles to a plain
// std::mutex — the bookkeeping calls are preprocessed away, so release
// builds pay nothing.
//
// Condition variables that wait on a RankedMutex must be
// std::condition_variable_any: its wait() releases and reacquires through
// our lock()/unlock(), keeping the held-rank stack correct across the wait
// (std::condition_variable only accepts unique_lock<std::mutex>).
#ifndef APQA_COMMON_LOCK_RANK_H_
#define APQA_COMMON_LOCK_RANK_H_

#include <cstddef>
#include <cstdint>
#include <mutex>

namespace apqa::common {

// The documented lock order of the whole process, sparse so future locks
// slot between layers. Derived nesting chains (see DESIGN.md):
//   kServerSp → kThreadPool     (SP's internal pool runs under sp_mu_)
//   kServerSp → kSigningBuild   (lazy precomp build during a query)
//   kSigningBuild → (none)      (build_mu bodies take no further locks)
// Transport locks are leaves: never held across a call that locks anything
// else (FaultyTransport releases mu_ before delegating to its inner
// transport's Send).
enum class LockRank : int {
  kServerSessions = 10,   // SpServer::sessions_mu_
  kServerSp = 20,         // SpServer::sp_mu_
  kThreadPool = 30,       // core::ThreadPool::mu_
  kSigningBuild = 40,     // abs/cpabe lazy-precomp build_mu
  kTransportFault = 60,   // net::FaultyTransport::mu_
  kTransportPipe = 70,    // net::PipeTransport::Inbox::mu
  kTransportSendRecv = 80,// net::SocketTransport::{send,recv}_mu_
  kTransportState = 90,   // net::SocketTransport::state_mu_
};

const char* LockRankName(LockRank r);

namespace lockdep {

// Called instead of std::abort on a rank violation when installed (tests).
// Arguments: the highest rank currently held, and the rank being acquired.
using ViolationHandler = void (*)(LockRank held, LockRank acquiring);

// Installs a test handler; nullptr restores the default (print + abort).
void SetViolationHandlerForTest(ViolationHandler handler);

// Process-wide count of rank violations observed (0 when lockdep is off).
// The net-service regression test pins the documented order by asserting
// this stays 0 across a full server/client/update interleaving.
std::uint64_t ViolationCount();

// Number of ranked locks the calling thread currently holds (0 when off).
std::size_t HeldCount();

// Bookkeeping entry points used by RankedMutex; no-ops unless APQA_LOCKDEP.
void OnAcquire(LockRank r);
void OnRelease(LockRank r);

}  // namespace lockdep

// Drop-in std::mutex replacement carrying its rank in the type. Satisfies
// Lockable, so std::lock_guard / std::unique_lock /
// std::condition_variable_any work unchanged.
template <LockRank R>
class RankedMutex {
 public:
  RankedMutex() = default;
  RankedMutex(const RankedMutex&) = delete;
  RankedMutex& operator=(const RankedMutex&) = delete;

  void lock() {
#ifdef APQA_LOCKDEP
    // Checked *before* blocking: an inversion is reported even on schedules
    // where the contradicting thread never shows up.
    lockdep::OnAcquire(R);
#endif
    mu_.lock();
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
#ifdef APQA_LOCKDEP
    // A try_lock cannot deadlock by itself, but acquiring out of order
    // still breaks the documented total order, so it is checked the same.
    lockdep::OnAcquire(R);
#endif
    return true;
  }

  void unlock() {
    mu_.unlock();
#ifdef APQA_LOCKDEP
    lockdep::OnRelease(R);
#endif
  }

  static constexpr LockRank rank() { return R; }

 private:
  std::mutex mu_;
};

}  // namespace apqa::common

#endif  // APQA_COMMON_LOCK_RANK_H_
