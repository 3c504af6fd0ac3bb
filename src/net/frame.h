// Wire format of the SP query service.
//
// Every message is one frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------
//        0     4  magic "APQF"
//        4     1  version (kFrameVersion)
//        5     1  message type (MsgType)
//        6     8  request id (client-chosen, echoed by the server)
//       14     4  deadline_ms (client's remaining budget for this attempt;
//                 0 in responses)
//       18     4  payload length
//       22     n  payload
//     22+n     8  checksum: SHA-256 over bytes [0, 22+n), truncated
//
// The checksum detects accidental corruption (a flaky link, a buggy proxy);
// it is *not* an authenticity mechanism — soundness against a malicious SP
// rests entirely on the VO verification the payload undergoes afterwards.
// Decoding is total: arbitrary bytes yield a typed FrameDecodeError, never
// UB, and the payload is only handed on once the checksum matches.
//
// Payload schemas (all little-endian, via common::ByteWriter/ByteReader):
//   kEqualityQuery            Point key, roles
//   kRangeQuery / kJoinQuery  Box range, roles
//   kVoResponse               core::Vo        (core/vo.h serialization)
//   kJoinVoResponse           core::JoinVo
//   kError                    u8 code, u32 backoff_hint_ms, string detail
//   kAdsUpdate                core::SignedAdsUpdate (DO→SP; DO-signed delta)
//   kUpdateAck                u8 apply status, u64 server epoch
#ifndef APQA_NET_FRAME_H_
#define APQA_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"
#include "core/ads_update.h"
#include "core/record.h"

namespace apqa::net {

inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::uint8_t kFrameMagic[4] = {'A', 'P', 'Q', 'F'};
inline constexpr std::size_t kFrameHeaderBytes = 22;
inline constexpr std::size_t kFrameChecksumBytes = 8;
// Hard cap on payload size: a hostile or corrupt length field must never
// drive allocation beyond this.
inline constexpr std::size_t kMaxFramePayloadBytes = 16u << 20;

enum class MsgType : std::uint8_t {
  kEqualityQuery = 1,
  kRangeQuery = 2,
  kJoinQuery = 3,
  kVoResponse = 4,
  kJoinVoResponse = 5,
  kError = 6,
  kAdsUpdate = 7,   // DO→SP authenticated ADS delta
  kUpdateAck = 8,   // SP→DO apply outcome + current epoch
};
const char* MsgTypeName(MsgType t);

// Server-side error taxonomy carried in kError payloads. Retryable codes
// describe transient server state; the rest indicate the request itself
// (or the server) is broken and retrying cannot help.
enum class RpcErrorCode : std::uint8_t {
  kDeadlineExceeded = 1,  // request expired in queue before a worker ran it
  kRetryLater = 2,        // queue full (load shed); honor backoff_hint_ms
  kShuttingDown = 3,      // server draining; try again elsewhere/later
  kBadRequest = 4,        // malformed or out-of-domain query
  kInternal = 5,          // handler threw; not the client's fault, not safe
                          // to assume a retry changes anything
};
const char* RpcErrorCodeName(RpcErrorCode c);
bool RpcErrorRetryable(RpcErrorCode c);

struct Frame {
  MsgType type = MsgType::kError;
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;
  std::vector<std::uint8_t> payload;
};

// [[nodiscard]]: a dropped decode verdict means acting on a frame that may
// never have validated — every caller must branch on it or justify a
// `(void)` discard (lint discard audit).
enum class [[nodiscard]] FrameDecodeError : std::uint8_t {
  kOk = 0,
  kTruncated,      // shorter than header + declared payload + checksum
  kBadMagic,
  kBadVersion,
  kBadType,
  kBadLength,      // declared payload length exceeds kMaxFramePayloadBytes
  kBadChecksum,
  kTrailingBytes,  // longer than header + declared payload + checksum
};
const char* FrameDecodeErrorName(FrameDecodeError e);

std::vector<std::uint8_t> EncodeFrame(const Frame& f);
// Wire entry point: bytes from the peer come back as a tainted frame. The
// envelope fields (type/request_id/deadline) are fully validated here —
// magic, version, type range, length cap, checksum — so the projection
// helpers below read them without declassifying; the *payload* stays
// untrusted until a typed payload decoder / Verify*Vo gate accepts it.
FrameDecodeError DecodeFrame(const std::vector<std::uint8_t>& buf,
                             common::Untrusted<Frame>* out);
// Untainted variant for test harnesses that dissect frames byte-by-byte;
// in src/ confined to the frame codec itself (lint R10).
FrameDecodeError DecodeFrameRaw(const std::vector<std::uint8_t>& buf,
                                Frame* out);

// Envelope projections, sound because DecodeFrame validated every header
// field before handing the frame out.
MsgType FrameType(const common::Untrusted<Frame>& f);
std::uint64_t FrameRequestId(const common::Untrusted<Frame>& f);
std::uint32_t FrameDeadlineMs(const common::Untrusted<Frame>& f);

// --- kError payload ---------------------------------------------------------

struct ErrorInfo {
  RpcErrorCode code = RpcErrorCode::kInternal;
  std::uint32_t backoff_hint_ms = 0;  // meaningful for kRetryLater
  std::string detail;
};

std::vector<std::uint8_t> EncodeErrorPayload(const ErrorInfo& info);
bool DecodeErrorPayload(const std::vector<std::uint8_t>& payload,
                        ErrorInfo* out);
// Tainted-frame overload: returns a *trusted* ErrorInfo because every field
// is validated at decode — the code must be in the taxonomy, the backoff
// hint is just a number the retry policy clamps, and the detail string is
// capped and carried for logging only (never parsed or executed).
bool DecodeErrorPayload(const common::Untrusted<Frame>& f, ErrorInfo* out);

// --- query payloads ---------------------------------------------------------

// One struct covers the three query types; which geometry field is
// meaningful follows from `type`.
struct QueryRequest {
  MsgType type = MsgType::kEqualityQuery;
  core::Point key;    // kEqualityQuery
  core::Box range;    // kRangeQuery / kJoinQuery
  core::RoleSet roles;
};

std::vector<std::uint8_t> EncodeQueryPayload(const QueryRequest& req);
// Strict: returns false unless the payload parses completely (no trailing
// bytes) into a structurally valid request of the given type.
bool DecodeQueryPayload(MsgType type, const std::vector<std::uint8_t>& payload,
                        QueryRequest* out);
// Tainted-frame overload: the parsed request stays tainted until
// ValidateQueryRequest accepts it against the server's domain.
bool DecodeQueryPayload(const common::Untrusted<Frame>& f,
                        common::Untrusted<QueryRequest>* out);
// Declassification gate of the query path: a request escapes the taint
// wrapper only if its geometry lies inside the server's domain (the role
// names need no semantic check here — every role is re-checked against
// signatures by the ADS walk). Returns false and leaves `out` untouched on
// an out-of-domain request.
bool ValidateQueryRequest(const common::Untrusted<QueryRequest>& req,
                          const core::Domain& domain, QueryRequest* out);

// --- kAdsUpdate / kUpdateAck payloads ---------------------------------------

std::vector<std::uint8_t> EncodeAdsUpdatePayload(
    const core::SignedAdsUpdate& update);
// Strict total decoding: arbitrary bytes either parse completely into a
// structurally valid SignedAdsUpdate or are rejected — truncation, tag
// corruption, and hostile patch counts all surface as `false`, never as a
// half-built delta (authenticity is checked separately by the server).
bool DecodeAdsUpdatePayload(const std::vector<std::uint8_t>& payload,
                            core::SignedAdsUpdate* out);
// Tainted-frame overload: the update stays tainted until the
// ServiceProvider's validate-then-apply gate authenticates it.
bool DecodeAdsUpdatePayload(const common::Untrusted<Frame>& f,
                            common::Untrusted<core::SignedAdsUpdate>* out);

struct UpdateAck {
  core::ApplyStatus status = core::ApplyStatus::kBadPatch;
  std::uint64_t epoch = 0;  // the SP's epoch after processing the frame
};

std::vector<std::uint8_t> EncodeUpdateAckPayload(const UpdateAck& ack);
bool DecodeUpdateAckPayload(const std::vector<std::uint8_t>& payload,
                            UpdateAck* out);
// Tainted-frame overload: returns a *trusted* UpdateAck because both fields
// are validated at decode — the status must be in the ApplyStatus taxonomy
// and the epoch is advisory (the DO only compares it, never applies it).
bool DecodeUpdateAckPayload(const common::Untrusted<Frame>& f, UpdateAck* out);

}  // namespace apqa::net

#endif  // APQA_NET_FRAME_H_
