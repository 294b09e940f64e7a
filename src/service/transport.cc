#include "service/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "service/fault_injection.h"

namespace dcp {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

// Builds a sockaddr for `address`. Returns the length to pass to bind/connect.
StatusOr<socklen_t> FillSockaddr(const ServiceAddress& address,
                                 sockaddr_storage* storage) {
  std::memset(storage, 0, sizeof(*storage));
  if (address.kind == ServiceAddress::Kind::kTcp) {
    auto* sin = reinterpret_cast<sockaddr_in*>(storage);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(static_cast<uint16_t>(address.port));
    if (::inet_pton(AF_INET, address.host.c_str(), &sin->sin_addr) != 1) {
      return Status::InvalidArgument("cannot parse IPv4 address '" + address.host +
                                     "' (the service transport is numeric-IP only)");
    }
    return static_cast<socklen_t>(sizeof(sockaddr_in));
  }
  auto* sun = reinterpret_cast<sockaddr_un*>(storage);
  sun->sun_family = AF_UNIX;
  if (address.path.empty() || address.path.size() >= sizeof(sun->sun_path)) {
    return Status::InvalidArgument("unix socket path must be 1.." +
                                   std::to_string(sizeof(sun->sun_path) - 1) +
                                   " bytes: '" + address.path + "'");
  }
  std::memcpy(sun->sun_path, address.path.c_str(), address.path.size() + 1);
  return static_cast<socklen_t>(sizeof(sockaddr_un));
}

int64_t NowMs() { return metrics::MonotonicMillis(); }

}  // namespace

ServiceAddress ServiceAddress::Tcp(std::string host, int port) {
  ServiceAddress address;
  address.kind = Kind::kTcp;
  address.host = std::move(host);
  address.port = port;
  return address;
}

ServiceAddress ServiceAddress::Unix(std::string path) {
  ServiceAddress address;
  address.kind = Kind::kUnix;
  address.path = std::move(path);
  return address;
}

StatusOr<ServiceAddress> ServiceAddress::Parse(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.empty()) {
      return Status::InvalidArgument("unix address needs a path: '" + spec + "'");
    }
    return Unix(path);
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= rest.size()) {
      return Status::InvalidArgument("tcp address must be tcp:host:port: '" + spec + "'");
    }
    const std::string port_text = rest.substr(colon + 1);
    int port = 0;
    for (char c : port_text) {
      if (c < '0' || c > '9' || port > 65535) {
        return Status::InvalidArgument("bad tcp port in '" + spec + "'");
      }
      port = port * 10 + (c - '0');
    }
    if (port > 65535) {
      return Status::InvalidArgument("bad tcp port in '" + spec + "'");
    }
    if (port == 0) {
      return Status::InvalidArgument(
          "tcp port must be 1..65535 in '" + spec +
          "' (port 0 would bind an ephemeral port or fail to connect; use "
          "ServiceAddress::Tcp(host, 0) to request an ephemeral bind explicitly)");
    }
    return Tcp(rest.substr(0, colon), port);
  }
  return Status::InvalidArgument("address must start with tcp: or unix: — got '" + spec +
                                 "'");
}

std::string ServiceAddress::ToString() const {
  if (kind == Kind::kTcp) {
    return "tcp:" + host + ":" + std::to_string(port);
  }
  return "unix:" + path;
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_),
      io_timeout_ms_(other.io_timeout_ms_),
      injector_(std::move(other.injector_)) {
  other.fd_ = -1;
  other.io_timeout_ms_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    io_timeout_ms_ = other.io_timeout_ms_;
    injector_ = std::move(other.injector_);
    other.fd_ = -1;
    other.io_timeout_ms_ = -1;
  }
  return *this;
}

void Socket::set_fault_injector(std::shared_ptr<FaultInjector> injector) {
  injector_ = std::move(injector);
}

Status Socket::Inject(FaultPoint point, const iovec* iov, int iovcnt) {
  if (injector_ == nullptr) {
    return Status::Ok();
  }
  const FaultDecision fault = injector_->Decide(point);
  if (fault.action == FaultAction::kDelay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
    return Status::Ok();
  }
  if (fault.action != FaultAction::kFail && fault.action != FaultAction::kTear) {
    return Status::Ok();
  }
  const std::string what = point == FaultPoint::kConnect ? "connect"
                           : point == FaultPoint::kSend  ? "send"
                                                         : "recv";
  if (fault.action == FaultAction::kFail || point == FaultPoint::kConnect) {
    return Status::Unavailable("fault injection: " + what + " failed");
  }
  // The peer observes a real torn frame (DATA_LOSS mid-payload), not a clean hangup.
  // A torn read is a torn frame on this side too.
  const std::string message = "fault injection: " + what + " torn after " +
                              std::to_string(Tear(iov, iovcnt, fault.tear_bytes)) +
                              " bytes";
  return point == FaultPoint::kRecv ? Status::DataLoss(message)
                                    : Status::Unavailable(message);
}

size_t Socket::Tear(const iovec* iov, int iovcnt, size_t tear_bytes) {
  size_t sent = 0;
  for (int i = 0; i < iovcnt && sent < tear_bytes; ++i) {
    iovec part = {iov[i].iov_base, std::min(iov[i].iov_len, tear_bytes - sent)};
    const IoResult r = RawSend(&part, 1);
    if (r.kind != IoResult::Kind::kProgress) {
      break;
    }
    sent += r.bytes;
    if (r.bytes < part.iov_len) {
      break;
    }
  }
  Shutdown();
  return sent;
}

IoResult Socket::RawRecv(void* buf, size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd_, buf, n, MSG_DONTWAIT);
    if (r > 0) {
      return {IoResult::Kind::kProgress, static_cast<size_t>(r)};
    }
    if (r == 0) {
      return {IoResult::Kind::kEof};
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::Kind::kWouldBlock};
    }
    if (errno != EINTR) {
      return {IoResult::Kind::kError, 0, Status::Unavailable(Errno("recv failed"))};
    }
  }
}

IoResult Socket::RawSend(const iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<size_t>(iovcnt);
  for (;;) {
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      return {IoResult::Kind::kProgress, static_cast<size_t>(n)};
    }
    // A zero-byte send (empty gather list) must not spin the caller's drain loop.
    if (n == 0 || errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoResult::Kind::kWouldBlock};
    }
    if (errno != EINTR) {
      return {IoResult::Kind::kError, 0, Status::Unavailable(Errno("send failed"))};
    }
  }
}

int64_t Socket::CallDeadlineMs() const {
  return io_timeout_ms_ < 0 ? -1 : NowMs() + io_timeout_ms_;
}

Status Socket::WaitReady(short events, int64_t deadline_ms, int budget_ms,
                         const char* what) const {
  pollfd pfd = {fd_, events, 0};
  for (;;) {
    int timeout_ms = -1;
    if (deadline_ms >= 0) {
      const int64_t remaining = deadline_ms - NowMs();
      if (remaining <= 0) {
        return Status::DeadlineExceeded(std::string(what) + " timed out after " +
                                        std::to_string(budget_ms) + "ms");
      }
      timeout_ms = static_cast<int>(remaining);
    }
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0) {
      return Status::Ok();  // Ready — or an error the next IO call surfaces.
    }
    if (ready < 0 && errno != EINTR) {
      return Status::Internal(Errno("poll failed"));
    }
  }
}

Status Socket::SendAll(std::string_view bytes) {
  iovec iov = {const_cast<char*>(bytes.data()), bytes.size()};
  return SendAll(&iov, 1);
}

Status Socket::SendAll(iovec* iov, int iovcnt) {
  if (!valid()) {
    return Status::Unavailable("send on closed socket");
  }
  DCP_RETURN_IF_ERROR(Inject(FaultPoint::kSend, iov, iovcnt));
  const int64_t deadline_ms = CallDeadlineMs();
  for (;;) {
    while (iovcnt > 0 && iov->iov_len == 0) {
      ++iov;
      --iovcnt;
    }
    if (iovcnt == 0) {
      return Status::Ok();
    }
    const IoResult r = RawSend(iov, iovcnt);
    if (r.kind == IoResult::Kind::kError) {
      return r.status;
    }
    if (r.kind == IoResult::Kind::kWouldBlock) {
      DCP_RETURN_IF_ERROR(WaitReady(POLLOUT, deadline_ms, io_timeout_ms_, "send"));
      continue;
    }
    for (size_t left = r.bytes; left > 0;) {
      const size_t step = std::min(left, iov->iov_len);
      iov->iov_base = static_cast<char*>(iov->iov_base) + step;
      iov->iov_len -= step;
      left -= step;
      if (iov->iov_len == 0) {
        ++iov;
        --iovcnt;
      }
    }
  }
}

Status Socket::RecvAll(void* buf, size_t n) {
  if (!valid()) {
    return Status::Unavailable("recv on closed socket");
  }
  DCP_RETURN_IF_ERROR(Inject(FaultPoint::kRecv));
  const int64_t deadline_ms = CallDeadlineMs();
  size_t got = 0;
  auto* out = static_cast<char*>(buf);
  while (got < n) {
    const IoResult r = RawRecv(out + got, n - got);
    switch (r.kind) {
      case IoResult::Kind::kProgress:
        got += r.bytes;
        break;
      case IoResult::Kind::kWouldBlock:
        DCP_RETURN_IF_ERROR(WaitReady(POLLIN, deadline_ms, io_timeout_ms_, "recv"));
        break;
      case IoResult::Kind::kEof:
        // A close on a frame boundary is how peers hang up; inside a frame it tore one.
        return got == 0 ? Status::Unavailable("connection closed")
                        : Status::DataLoss("connection closed mid-frame after " +
                                           std::to_string(got) + " bytes");
      case IoResult::Kind::kError:
        return r.status;
    }
  }
  return Status::Ok();
}

IoResult Socket::ReadSome(void* buf, size_t n) {
  if (!valid()) {
    return {IoResult::Kind::kError, 0, Status::Unavailable("recv on closed socket")};
  }
  Status injected = Inject(FaultPoint::kRecv);
  if (!injected.ok()) {
    return {IoResult::Kind::kError, 0, std::move(injected)};
  }
  return RawRecv(buf, n);
}

IoResult Socket::Writev(const iovec* iov, int iovcnt) {
  if (!valid()) {
    return {IoResult::Kind::kError, 0, Status::Unavailable("send on closed socket")};
  }
  Status injected = Inject(FaultPoint::kSend, iov, iovcnt);
  if (!injected.ok()) {
    return {IoResult::Kind::kError, 0, std::move(injected)};
  }
  return RawSend(iov, iovcnt);
}

void Socket::Shutdown() {
  if (valid()) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void Socket::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> ConnectSocket(const ServiceAddress& address, int timeout_ms) {
  Socket sock;
  sock.set_fault_injector(GlobalFaultInjector());
  DCP_RETURN_IF_ERROR(sock.Inject(FaultPoint::kConnect));
  sockaddr_storage storage;
  StatusOr<socklen_t> len = FillSockaddr(address, &storage);
  if (!len.ok()) {
    return len.status();
  }
  const int domain =
      address.kind == ServiceAddress::Kind::kTcp ? AF_INET : AF_UNIX;
  sock.fd_ = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (!sock.valid()) {
    return Status::Internal(Errno("socket failed"));
  }
  // Non-blocking connect: wait for writability, then read the kernel's verdict from
  // SO_ERROR. A Unix socket with a full backlog fails at once with EAGAIN.
  if (::connect(sock.fd_, reinterpret_cast<sockaddr*>(&storage), len.value()) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable(Errno("cannot connect to " + address.ToString()));
    }
    const int64_t deadline_ms = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
    Status ready = sock.WaitReady(POLLOUT, deadline_ms, timeout_ms, "connect");
    if (!ready.ok()) {
      return Status(ready.code(), ready.message() + " (" + address.ToString() + ")");
    }
    int so_error = 0;
    socklen_t so_len = sizeof(so_error);
    if (::getsockopt(sock.fd_, SOL_SOCKET, SO_ERROR, &so_error, &so_len) != 0 ||
        so_error != 0) {
      errno = so_error != 0 ? so_error : errno;
      return Status::Unavailable(Errno("cannot connect to " + address.ToString()));
    }
  }
  if (address.kind == ServiceAddress::Kind::kTcp) {
    // Plan RPCs are small request / large response; never trade latency for batching.
    const int one = 1;
    (void)::setsockopt(sock.fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return sock;
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), bound_(std::move(other.bound_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    bound_ = std::move(other.bound_);
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Listener> Listener::Bind(const ServiceAddress& address, int backlog) {
  if (address.kind == ServiceAddress::Kind::kUnix) {
    // Replace a stale socket file from a dead server; refuse to clobber anything that
    // is not a socket (a config typo must not delete a real file).
    struct stat st;
    if (::lstat(address.path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        return Status::InvalidArgument("refusing to replace non-socket file at " +
                                       address.path);
      }
      ::unlink(address.path.c_str());
    }
  }
  sockaddr_storage storage;
  StatusOr<socklen_t> len = FillSockaddr(address, &storage);
  if (!len.ok()) {
    return len.status();
  }
  const int domain =
      address.kind == ServiceAddress::Kind::kTcp ? AF_INET : AF_UNIX;
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(Errno("socket failed"));
  }
  Listener listener;
  listener.fd_ = fd;
  if (address.kind == ServiceAddress::Kind::kTcp) {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&storage), len.value()) != 0) {
    return Status::Unavailable(Errno("cannot bind " + address.ToString()));
  }
  if (::listen(fd, backlog > 0 ? backlog : SOMAXCONN) != 0) {
    return Status::Internal(Errno("cannot listen on " + address.ToString()));
  }
  listener.bound_ = address;
  if (address.kind == ServiceAddress::Kind::kTcp && address.port == 0) {
    sockaddr_in sin;
    socklen_t sin_len = sizeof(sin);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &sin_len) != 0) {
      return Status::Internal(Errno("getsockname failed"));
    }
    listener.bound_.port = ntohs(sin.sin_port);
  }
  return listener;
}

void Listener::Close() {
  if (valid()) {
    ::close(fd_);
    fd_ = -1;
    if (bound_.kind == ServiceAddress::Kind::kUnix && !bound_.path.empty()) {
      ::unlink(bound_.path.c_str());
    }
  }
}

}  // namespace dcp
