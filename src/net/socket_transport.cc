#include "net/socket_transport.h"

#include <arpa/inet.h>
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/frame.h"

namespace apqa::net {

namespace {

std::int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The sockaddr_in/sockaddr pun is the POSIX API contract; keeping the cast
// in one helper keeps the rest of the file free of it (lint R4 allowlists
// this file).
sockaddr* AsSockaddr(sockaddr_in* addr) {
  return reinterpret_cast<sockaddr*>(addr);
}

}  // namespace

SocketTransport::~SocketTransport() {
  Close();
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

std::unique_ptr<SocketTransport> SocketTransport::Connect(
    const std::string& host, std::uint16_t port, std::uint32_t timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return nullptr;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (::connect(fd, AsSockaddr(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketTransport>(fd);
}

bool SocketTransport::Send(const std::vector<std::uint8_t>& frame) {
  std::lock_guard lock(send_mu_);
  if (fd_ < 0) return false;
  const std::uint8_t* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

RecvStatus SocketTransport::ReadUntil(std::size_t n,
                                      std::int64_t deadline_unix_ms) {
  std::size_t got = partial_.size();
  if (got >= n) return RecvStatus::kOk;
  partial_.resize(n);
  RecvStatus status = RecvStatus::kOk;
  while (got < n) {
    std::int64_t left = deadline_unix_ms - NowUnixMs();
    if (left <= 0) {
      status = RecvStatus::kTimeout;
      break;
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int pr = ::poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      status = RecvStatus::kError;
      break;
    }
    if (pr == 0) {
      status = RecvStatus::kTimeout;
      break;
    }
    ssize_t r = ::recv(fd_, partial_.data() + got, n - got, 0);
    if (r == 0) {
      status = RecvStatus::kClosed;
      break;
    }
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      status = RecvStatus::kError;
      break;
    }
    got += static_cast<std::size_t>(r);
  }
  partial_.resize(got);
  return status;
}

RecvStatus SocketTransport::Recv(std::vector<std::uint8_t>* frame,
                                 std::uint32_t timeout_ms) {
  std::lock_guard lock(recv_mu_);
  if (fd_ < 0) return RecvStatus::kClosed;
  std::int64_t deadline = NowUnixMs() + timeout_ms;

  RecvStatus s = ReadUntil(kFrameHeaderBytes, deadline);
  if (s != RecvStatus::kOk) return s;

  // Sanity-check the header before trusting the length: a desynchronized
  // stream must not drive a multi-megabyte allocation.
  if (!std::equal(kFrameMagic, kFrameMagic + sizeof(kFrameMagic),
                  partial_.begin())) {
    return RecvStatus::kError;
  }
  std::uint32_t payload_len = 0;
  for (int i = 3; i >= 0; --i) {
    payload_len =
        (payload_len << 8) | partial_[18 + static_cast<std::size_t>(i)];
  }
  if (payload_len > kMaxFramePayloadBytes) return RecvStatus::kError;

  s = ReadUntil(kFrameHeaderBytes + payload_len + kFrameChecksumBytes,
                deadline);
  if (s != RecvStatus::kOk) return s;
  *frame = std::move(partial_);
  partial_.clear();
  return RecvStatus::kOk;
}

void SocketTransport::Close() {
  std::lock_guard lock(state_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

TcpListener::TcpListener(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, AsSockaddr(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, AsSockaddr(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  fd_ = fd;
}

TcpListener::~TcpListener() { Close(); }

std::unique_ptr<SocketTransport> TcpListener::Accept(
    std::uint32_t timeout_ms) {
  if (fd_ < 0) return nullptr;
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int pr = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  if (pr <= 0) return nullptr;
  int cfd = ::accept(fd_, nullptr, nullptr);
  if (cfd < 0) return nullptr;
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::make_unique<SocketTransport>(cfd);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace apqa::net
