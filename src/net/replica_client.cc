#include "net/replica_client.h"

#include <algorithm>
#include <limits>

namespace apqa::net {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

}  // namespace

const char* EndpointStateName(EndpointState s) {
  switch (s) {
    case EndpointState::kClosed:
      return "CLOSED";
    case EndpointState::kOpen:
      return "OPEN";
    case EndpointState::kHalfOpen:
      return "HALF_OPEN";
    case EndpointState::kQuarantined:
      return "QUARANTINED";
  }
  return "UNKNOWN";
}

FailoverClient::FailoverClient(core::SystemKeys keys,
                               core::UserCredentials creds,
                               std::vector<ReplicaEndpoint> endpoints,
                               FailoverOptions opts)
    : inner_(std::move(keys), std::move(creds), nullptr, opts.client),
      opts_(opts) {
  slots_.reserve(endpoints.size());
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    // Distinct per-slot seeds keep replica cooldowns decorrelated from each
    // other the same way client backoff decorrelates competing clients.
    slots_.emplace_back(std::move(endpoints[i]), opts.breaker_backoff,
                        opts.breaker_seed + i);
  }
}

void FailoverClient::SetClockForTest(std::function<std::uint64_t()> now_ms) {
  clock_.now_ms = now_ms;
  inner_.SetClockForTest(std::move(now_ms));
}

void FailoverClient::SetSleepForTest(
    std::function<void(std::uint32_t)> sleep_ms) {
  clock_.sleep_ms = sleep_ms;
  inner_.SetSleepForTest(std::move(sleep_ms));
}

ClientResult FailoverClient::Equality(const core::Point& key,
                                      core::Record* result, bool* accessible) {
  return Run([&] { return inner_.Equality(key, result, accessible); });
}

ClientResult FailoverClient::Range(const core::Box& range,
                                   std::vector<core::Record>* results) {
  return Run([&] { return inner_.Range(range, results); });
}

ClientResult FailoverClient::Join(
    const core::Box& range, std::vector<std::vector<core::Record>>* results) {
  return Run([&] { return inner_.Join(range, results); });
}

std::size_t FailoverClient::PickEndpoint(std::uint64_t now_ms) {
  // Preferred endpoint first (the last one that answered with a verified
  // VO), then rotation order, so a healthy deployment sticks to one replica
  // instead of spraying every query across the fleet.
  for (std::size_t off = 0; off < slots_.size(); ++off) {
    std::size_t idx = (preferred_ + off) % slots_.size();
    Slot& s = slots_[idx];
    switch (s.stats.state) {
      case EndpointState::kClosed:
      case EndpointState::kHalfOpen:
        return idx;
      case EndpointState::kOpen:
        if (now_ms >= s.reopen_at_ms) {
          s.stats.state = EndpointState::kHalfOpen;
          return idx;
        }
        break;
      case EndpointState::kQuarantined:
        break;
    }
  }
  return kNone;
}

void FailoverClient::NoteSuccess(std::size_t idx) {
  Slot& s = slots_[idx];
  s.stats.successes += 1;
  s.stats.state = EndpointState::kClosed;
  s.consecutive_failures = 0;
  s.cooldown.Reset();
  preferred_ = idx;
}

void FailoverClient::NoteFailure(std::size_t idx, std::uint64_t now_ms) {
  Slot& s = slots_[idx];
  s.stats.failures += 1;
  s.consecutive_failures += 1;
  bool probe_failed = s.stats.state == EndpointState::kHalfOpen;
  if (probe_failed || s.consecutive_failures >= opts_.failures_to_open) {
    s.stats.state = EndpointState::kOpen;
    s.stats.breaker_opens += 1;
    // A failed half-open probe re-opens with a *longer* cooldown: the
    // decorrelated draw grows from the previous delay, backing a flapping
    // replica further off each time.
    s.reopen_at_ms = now_ms + s.cooldown.NextDelayMs();
  }
}

void FailoverClient::Quarantine(std::size_t idx, const std::string& reason) {
  Slot& s = slots_[idx];
  s.stats.state = EndpointState::kQuarantined;
  s.stats.quarantine_reason = reason;
  s.transport.reset();
}

ClientResult FailoverClient::Run(
    const std::function<ClientResult()>& attempt) {
  DeadlineBudget budget(opts_.total_deadline_ms, clock_.now_ms());
  ClientResult last;
  last.status = ClientStatus::kTransportClosed;
  last.detail = "no replica endpoint reachable";
  bool attempted = false;

  for (;;) {
    std::uint64_t now = clock_.now_ms();
    std::uint32_t remaining = budget.RemainingMs(now);
    if (remaining == 0) {
      if (attempted) return last;  // most recent failure explains the miss
      ClientResult r;
      r.status = ClientStatus::kDeadlineExceeded;
      r.detail = "budget exhausted before any attempt";
      return r;
    }

    std::size_t idx = PickEndpoint(now);
    if (idx == kNone) {
      // Nothing eligible: either every endpoint is quarantined (give up —
      // no cooldown will ever fix a liar) or the survivors are all cooling
      // down (sleep until the earliest breaker may half-open).
      std::uint64_t earliest = std::numeric_limits<std::uint64_t>::max();
      for (const Slot& s : slots_) {
        if (s.stats.state == EndpointState::kOpen) {
          earliest = std::min(earliest, s.reopen_at_ms);
        }
      }
      if (earliest == std::numeric_limits<std::uint64_t>::max()) {
        if (!attempted) last.detail = "all replica endpoints quarantined";
        return last;
      }
      std::uint64_t wait =
          earliest > now ? std::min<std::uint64_t>(earliest - now, remaining)
                         : 1;
      if (wait >= remaining) {
        last.status =
            attempted ? last.status : ClientStatus::kDeadlineExceeded;
        return last;
      }
      clock_.sleep_ms(static_cast<std::uint32_t>(wait));
      continue;
    }

    Slot& slot = slots_[idx];
    slot.stats.queries += 1;
    if (!slot.transport) {
      slot.transport = slot.endpoint.connect ? slot.endpoint.connect()
                                             : nullptr;
    }
    if (!slot.transport) {
      NoteFailure(idx, clock_.now_ms());
      attempted = true;
      last.status = ClientStatus::kTransportClosed;
      last.detail = "connect to " + slot.endpoint.name + " failed";
      continue;
    }

    inner_.SetTransport(slot.transport);
    inner_.set_deadline_ms(std::min(remaining, opts_.client.deadline_ms));
    ClientResult r = attempt();
    attempted = true;

    switch (r.status) {
      case ClientStatus::kOk:
        NoteSuccess(idx);
        return r;

      case ClientStatus::kVerifyRejected:
        // Byzantine evidence: the replica produced bytes that *parse* but
        // fail verification, or served an epoch below the client's
        // verified high-water mark. Permanently out of rotation — the same
        // query immediately fails over to an honest replica.
        Quarantine(idx,
                   r.verify.code == core::VerifyCode::kStaleEpoch
                       ? "rolled-back epoch below the client's high-water mark"
                       : "parsed-but-unverified VO");
        last = r;
        break;

      case ClientStatus::kServerRejected:
        if (r.server_error.code == RpcErrorCode::kBadRequest) {
          // The query itself is malformed: every replica will say the
          // same, so failing over is pure waste.
          return r;
        }
        // kInternal: this replica's handler is broken; try another. The
        // transport is fine (the server answered), so keep it cached.
        NoteFailure(idx, clock_.now_ms());
        last = r;
        break;

      case ClientStatus::kDeadlineExceeded:
      case ClientStatus::kRetriesExhausted:
      case ClientStatus::kTransportClosed:
        slot.transport.reset();
        NoteFailure(idx, clock_.now_ms());
        last = r;
        break;
    }
  }
}

}  // namespace apqa::net
