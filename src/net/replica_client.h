// FailoverClient: replica-aware front end over ApqaClient.
//
// A deployment runs several SP replicas serving the same DO-published ADS.
// This class owns ONE verifying ApqaClient and repoints it across an
// ordered endpoint set, adding three behaviours the single-endpoint client
// cannot provide:
//
//   * health probing / circuit breaking — per-endpoint breaker opens after
//     `failures_to_open` consecutive transport-level failures; after a
//     decorrelated-jitter cooldown the breaker goes half-open and the next
//     real query doubles as the health probe (success closes it, failure
//     re-opens with a longer cooldown);
//
//   * hedged retry — a transport / deadline / retries-exhausted failure
//     immediately fails the query over to the next healthy replica inside
//     the same total deadline budget, each attempt getting a slice of what
//     remains;
//
//   * byzantine quarantine — an endpoint whose response *parses* but fails
//     VO verification, or whose served epoch has rolled back below the
//     client's verified high-water mark, is quarantined PERMANENTLY: no
//     probe, no cooldown, zero further requests. A breaker protects
//     against crashes; nothing rehabilitates a replica that lied.
//
// Sharing one inner ApqaClient across endpoints is the point, not an
// optimization: its high-water epoch is the cross-replica rollback
// detector. A verified answer at epoch e on replica A arms kStaleEpoch
// against replica B serving e' < e — without shared state each endpoint
// could be rolled back independently.
//
// Thread-compatibility mirrors ApqaClient: one query at a time per
// instance, external synchronization if shared.
#ifndef APQA_NET_REPLICA_CLIENT_H_
#define APQA_NET_REPLICA_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/backoff.h"
#include "net/client.h"

namespace apqa::net {

struct ReplicaEndpoint {
  std::string name;
  // Returns a connected transport, or null when the replica is unreachable
  // (counted as a failure against its breaker).
  std::function<std::shared_ptr<Transport>()> connect;
};

enum class EndpointState : std::uint8_t {
  kClosed = 0,   // healthy, takes traffic
  kOpen,         // breaker open, cooling down
  kHalfOpen,     // cooldown elapsed; next query is the probe
  kQuarantined,  // failed verification — permanently out of rotation
};
const char* EndpointStateName(EndpointState s);

struct EndpointStats {
  EndpointState state = EndpointState::kClosed;
  std::uint64_t queries = 0;    // attempts routed to this endpoint
  std::uint64_t successes = 0;  // verified kOk answers
  std::uint64_t failures = 0;   // transport-level failures
  std::uint64_t breaker_opens = 0;
  std::string quarantine_reason;  // non-empty iff kQuarantined
};

struct FailoverOptions {
  // Per-endpoint client settings; `client.deadline_ms` caps one endpoint's
  // slice of the total budget (further clamped by what remains).
  ClientOptions client;
  // Total budget across all endpoints and failovers for one query.
  std::uint32_t total_deadline_ms = 8000;
  // Consecutive transport failures before the breaker opens.
  int failures_to_open = 1;
  // Breaker cooldown pacing (decorrelated jitter, per endpoint).
  BackoffSpec breaker_backoff{50, 2000};
  std::uint64_t breaker_seed = 0xfa11;
};

class FailoverClient {
 public:
  // `endpoints` is the preference order at startup; a verified success
  // promotes its endpoint to preferred until it fails.
  FailoverClient(core::SystemKeys keys, core::UserCredentials creds,
                 std::vector<ReplicaEndpoint> endpoints,
                 FailoverOptions opts = {});

  ClientResult Equality(const core::Point& key, core::Record* result,
                        bool* accessible);
  ClientResult Range(const core::Box& range,
                     std::vector<core::Record>* results);
  ClientResult Join(const core::Box& range,
                    std::vector<std::vector<core::Record>>* results);

  const ClientStats& stats() const { return inner_.stats(); }
  const EndpointStats& endpoint_stats(std::size_t i) const {
    return slots_[i].stats;
  }
  std::size_t endpoint_count() const { return slots_.size(); }

  // Test seams, forwarded to the inner client and used for breaker clocks.
  void SetClockForTest(std::function<std::uint64_t()> now_ms);
  void SetSleepForTest(std::function<void(std::uint32_t)> sleep_ms);

 private:
  struct Slot {
    ReplicaEndpoint endpoint;
    EndpointStats stats;
    std::shared_ptr<Transport> transport;  // cached across queries
    int consecutive_failures = 0;
    std::uint64_t reopen_at_ms = 0;  // when kOpen may go kHalfOpen
    DecorrelatedJitterBackoff cooldown;

    Slot(ReplicaEndpoint ep, BackoffSpec spec, std::uint64_t seed)
        : endpoint(std::move(ep)), cooldown(spec, seed) {}
  };

  // Runs one logical query, failing over across replicas until it gets a
  // verified answer, a fatal client-side rejection, or the budget dies.
  ClientResult Run(const std::function<ClientResult()>& attempt);
  // Next eligible slot index (preferred first, then rotation order), or
  // npos when every endpoint is quarantined / still cooling down.
  std::size_t PickEndpoint(std::uint64_t now_ms);
  void NoteSuccess(std::size_t idx);
  void NoteFailure(std::size_t idx, std::uint64_t now_ms);
  void Quarantine(std::size_t idx, const std::string& reason);

  ApqaClient inner_;
  FailoverOptions opts_;
  std::vector<Slot> slots_;
  std::size_t preferred_ = 0;
  Clock clock_;
};

}  // namespace apqa::net

#endif  // APQA_NET_REPLICA_CLIENT_H_
