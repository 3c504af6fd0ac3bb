// POSIX TCP transport: frames over a byte stream.
//
// The stream is parsed incrementally against the frame header (net/frame.h):
// a fixed-size header announces the payload length, which is clamped before
// any allocation. A desynchronized stream (bad magic, oversized length) is
// unrecoverable — Recv reports kError and the connection should be dropped;
// per-frame corruption detection stays with the checksum in DecodeFrame.
// A timeout never discards bytes: the part of a frame read so far stays in
// the transport, Recv reports kTimeout, and the next Recv resumes the frame.
#ifndef APQA_NET_SOCKET_TRANSPORT_H_
#define APQA_NET_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "net/transport.h"

namespace apqa::net {

class SocketTransport : public Transport {
 public:
  // Takes ownership of a connected socket fd.
  explicit SocketTransport(int fd) : fd_(fd) {}
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Connects to host:port (numeric IPv4, e.g. "127.0.0.1"). Returns null
  // on failure.
  static std::unique_ptr<SocketTransport> Connect(const std::string& host,
                                                  std::uint16_t port,
                                                  std::uint32_t timeout_ms);

  bool Send(const std::vector<std::uint8_t>& frame) override;
  RecvStatus Recv(std::vector<std::uint8_t>* frame,
                  std::uint32_t timeout_ms) override;
  void Close() override;

 private:
  // Reads until partial_ holds n bytes, polling against the deadline.
  // Whatever arrived stays in partial_ on every outcome.
  RecvStatus ReadUntil(std::size_t n, std::int64_t deadline_unix_ms);

  int fd_ = -1;
  // The frame in progress (guarded by recv_mu_): bytes received by a Recv
  // that timed out mid-frame, resumed by the next Recv.
  std::vector<std::uint8_t> partial_;
  // Leaf ranks: each is held alone. send/recv share a rank (a thread is a
  // writer or a reader, never both); state_mu_ gets its own rank so a
  // future fd check under an I/O lock nests legally rather than silently.
  common::RankedMutex<common::LockRank::kTransportSendRecv>
      send_mu_;  // serializes concurrent writers (pool workers)
  common::RankedMutex<common::LockRank::kTransportSendRecv>
      recv_mu_;  // one reader at a time
  common::RankedMutex<common::LockRank::kTransportState>
      state_mu_;  // guards fd_ against Close()
};

// Listening socket bound to 127.0.0.1; port 0 picks an ephemeral port
// (readable via port() — tests use this to avoid collisions).
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  // Waits up to timeout_ms for one connection; null on timeout/closed.
  std::unique_ptr<SocketTransport> Accept(std::uint32_t timeout_ms);
  void Close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace apqa::net

#endif  // APQA_NET_SOCKET_TRANSPORT_H_
