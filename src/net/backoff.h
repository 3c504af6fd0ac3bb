// Retry pacing for the query client.
//
// Decorrelated jitter (the AWS architecture-blog variant): each delay is
// drawn uniformly from [base, prev * 3] and clamped to the cap. Compared
// with plain exponential backoff it decorrelates competing clients while
// keeping the expected delay growing geometrically. The driving PRNG is
// the same splitmix64 as common/mutate.h, seeded explicitly, so a retry
// schedule is a pure function of (seed, hint sequence) — CI asserts golden
// sequences instead of sleeping.
//
// DeadlineBudget does the client-side deadline arithmetic against an
// injectable millisecond clock (Clock); all remaining-time math saturates at
// zero rather than wrapping.
#ifndef APQA_NET_BACKOFF_H_
#define APQA_NET_BACKOFF_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "common/mutate.h"

namespace apqa::net {

struct BackoffSpec {
  std::uint32_t base_ms = 10;
  std::uint32_t cap_ms = 1000;
};

// "No remaining-budget cap" sentinel for NextDelayMs.
inline constexpr std::uint32_t kNoBudgetCap = 0xffffffffu;

class DecorrelatedJitterBackoff {
 public:
  DecorrelatedJitterBackoff(BackoffSpec spec, std::uint64_t seed)
      : spec_(spec), rng_(seed), prev_ms_(spec.base_ms) {}

  // Next delay. `server_hint_ms` (from a RETRY_LATER response) acts as a
  // floor: the server knows how congested it is better than we do.
  // `budget_cap_ms` (the caller's remaining deadline budget) clamps last:
  // neither the *3 jitter growth nor a hostile/huge server hint can ever
  // schedule a sleep past the deadline, and the clamped value also becomes
  // prev_ms_ so growth re-bases on what was actually slept.
  std::uint32_t NextDelayMs(std::uint32_t server_hint_ms = 0,
                            std::uint32_t budget_cap_ms = kNoBudgetCap) {
    std::uint64_t lo = spec_.base_ms;
    std::uint64_t hi = std::max<std::uint64_t>(
        lo, std::uint64_t{3} * std::max<std::uint64_t>(prev_ms_, 1));
    std::uint64_t draw = lo + rng_.Below(static_cast<std::size_t>(hi - lo + 1));
    std::uint32_t delay = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(draw, spec_.cap_ms));
    delay = std::max(delay, std::min(server_hint_ms, spec_.cap_ms));
    delay = std::min(delay, budget_cap_ms);
    prev_ms_ = delay;
    return delay;
  }

  void Reset() { prev_ms_ = spec_.base_ms; }

 private:
  BackoffSpec spec_;
  common::MutRng rng_;
  std::uint32_t prev_ms_;
};

// Tracks one query's total deadline against a caller-supplied "now"
// (milliseconds on any monotonic scale).
class DeadlineBudget {
 public:
  DeadlineBudget(std::uint32_t budget_ms, std::uint64_t now_ms)
      : start_ms_(now_ms), budget_ms_(budget_ms) {}

  // Remaining budget at `now_ms`; saturates at zero once exhausted. A
  // clock that stepped backwards counts as zero elapsed (full budget)
  // rather than wrapping the subtraction.
  std::uint32_t RemainingMs(std::uint64_t now_ms) const {
    if (now_ms < start_ms_) return budget_ms_;
    std::uint64_t elapsed = now_ms - start_ms_;
    if (elapsed >= budget_ms_) return 0;
    return budget_ms_ - static_cast<std::uint32_t>(elapsed);
  }

  bool Expired(std::uint64_t now_ms) const { return RemainingMs(now_ms) == 0; }

 private:
  std::uint64_t start_ms_;
  std::uint32_t budget_ms_;
};

// Milliseconds on the steady clock.
inline std::uint64_t SteadyNowMs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void SleepMs(std::uint32_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The millisecond clock and sleep a retrying client paces itself by. Tests
// swap both for fakes (the clients' SetClockForTest / SetSleepForTest) so
// deadline and backoff schedules are deterministic.
struct Clock {
  std::function<std::uint64_t()> now_ms = SteadyNowMs;
  std::function<void(std::uint32_t)> sleep_ms = SleepMs;
};

}  // namespace apqa::net

#endif  // APQA_NET_BACKOFF_H_
