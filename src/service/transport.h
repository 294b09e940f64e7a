// Socket transport for the planning service: a move-only Socket wrapper plus a
// Listener that binds over TCP (127.0.0.1:port, port 0 picks an ephemeral one) or
// Unix-domain sockets. Everything returns Status — a refused connection, a closed peer,
// or a bind collision is an operational condition, never an abort. There is one IO
// path: every call is a non-blocking recv/sendmsg, and the blocking calls (SendAll,
// RecvAll, ConnectSocket) are deadline loops that poll on EAGAIN, so an fd's blocking
// mode never matters. The listener is non-blocking; PlanServer accepts on it from its
// epoll loops.
#ifndef DCP_SERVICE_TRANSPORT_H_
#define DCP_SERVICE_TRANSPORT_H_

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace dcp {

class FaultInjector;  // service/fault_injection.h — transport stays below it.
enum class FaultPoint : uint8_t;

// "tcp:host:port" or "unix:/path/to.sock".
struct ServiceAddress {
  enum class Kind { kTcp, kUnix };

  Kind kind = Kind::kTcp;
  std::string host = "127.0.0.1";  // kTcp.
  int port = 0;                    // kTcp; 0 binds an ephemeral port.
  std::string path;                // kUnix.

  static ServiceAddress Tcp(std::string host, int port);
  static ServiceAddress Unix(std::string path);
  // Parses "tcp:host:port" / "unix:/path". TCP ports must be 1..65535: port 0 is
  // rejected here because a parsed address names a peer to reach (connect to port 0
  // fails with a misleading errno) or a fixed bind (port 0 would silently bind an
  // ephemeral one). Code that *wants* an ephemeral bind asks for it explicitly with
  // ServiceAddress::Tcp(host, 0).
  static StatusOr<ServiceAddress> Parse(const std::string& spec);
  std::string ToString() const;
};

// Outcome of one non-blocking IO attempt (Socket::ReadSome / Socket::Writev).
struct IoResult {
  enum class Kind {
    kProgress,    // `bytes` were transferred (> 0).
    kWouldBlock,  // The socket is not ready; wait for readiness and retry.
    kEof,         // Reads only: the peer closed cleanly.
    kError,       // The connection is unusable; `status` says why. Caller closes.
  };
  Kind kind = Kind::kError;
  size_t bytes = 0;
  Status status = Status::Ok();
};

// A connected stream socket; move-only; closes on destruction. Every call is
// non-blocking underneath, so the fd's O_NONBLOCK flag does not matter. No call closes
// the fd on an error or an injected fault: the owner closes it (the event loop owns
// its fds' poller registration, and a client closes before it reconnects).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  // Writes all of `bytes` (EINTR-safe, SIGPIPE suppressed). UNAVAILABLE when the peer
  // is gone; DEADLINE_EXCEEDED when an io timeout is set and the peer stops draining.
  Status SendAll(std::string_view bytes);
  // SendAll over a gather list. Advances `iov` in place as bytes go out.
  Status SendAll(iovec* iov, int iovcnt);
  // Reads exactly `n` bytes. UNAVAILABLE on a clean close before the first byte,
  // DATA_LOSS on a close mid-read (the peer tore a frame), DEADLINE_EXCEEDED when an
  // io timeout is set and the bytes do not all arrive in time.
  Status RecvAll(void* buf, size_t n);

  // Time budget for each SendAll/RecvAll call as a whole: when the peer cannot finish
  // within `timeout_ms`, the call fails with DEADLINE_EXCEEDED instead of waiting
  // forever. -1 (the default) waits without a limit.
  void set_io_timeout_ms(int timeout_ms) { io_timeout_ms_ = timeout_ms; }
  int io_timeout_ms() const { return io_timeout_ms_; }

  // When set, every later IO call consults the injector exactly once
  // (service/fault_injection.h). Sockets from ConnectSocket pick up the process-global
  // injector automatically when one is installed; PlanServer sets it on the sockets it
  // accepts.
  void set_fault_injector(std::shared_ptr<FaultInjector> injector);

  // --- Single attempts (the event-driven server path) --------------------------------

  // One recv of up to `n` bytes.
  IoResult ReadSome(void* buf, size_t n);
  // One scatter-gather send (sendmsg, SIGPIPE suppressed). May transfer any prefix of
  // the iovecs' bytes; the caller tracks its own cursor.
  IoResult Writev(const iovec* iov, int iovcnt);

  // Shuts both directions down; the peer reads EOF. The fd stays open until Close().
  void Shutdown();
  void Close();

 private:
  friend StatusOr<Socket> ConnectSocket(const ServiceAddress& address, int timeout_ms);

  // The fault hook: one injector decision per public IO call. kDelay sleeps and
  // proceeds; kFail and kTear return the status the call surfaces. A tear first lets
  // through at most tear_bytes of `iov` (sends only), then shuts the socket down.
  Status Inject(FaultPoint point, const iovec* iov = nullptr, int iovcnt = 0);
  // Sends at most `tear_bytes` of `iov`, then shuts the socket down. Returns the bytes
  // sent.
  size_t Tear(const iovec* iov, int iovcnt, size_t tear_bytes);
  // One MSG_DONTWAIT recv / sendmsg, retried only on EINTR.
  IoResult RawRecv(void* buf, size_t n);
  IoResult RawSend(const iovec* iov, int iovcnt);
  // The deadline for one SendAll/RecvAll call: now + io timeout, or -1 for none.
  int64_t CallDeadlineMs() const;
  // Polls until fd_ is ready for `events` or `deadline_ms` passes (-1: no deadline).
  // `budget_ms` only names the budget in the DEADLINE_EXCEEDED message.
  Status WaitReady(short events, int64_t deadline_ms, int budget_ms,
                   const char* what) const;

  int fd_ = -1;
  int io_timeout_ms_ = -1;
  std::shared_ptr<FaultInjector> injector_;
};

// Connects to a listening service endpoint. With `timeout_ms` >= 0 the connect is
// bounded: a black-holed address fails with DEADLINE_EXCEEDED instead of hanging for
// the kernel's SYN-retry minutes. -1 waits without a limit.
StatusOr<Socket> ConnectSocket(const ServiceAddress& address, int timeout_ms = -1);

// A bound, listening, non-blocking socket. PlanServer accepts on fd() from its event
// loops.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Binds and listens. For TCP with port 0, bound_address() reports the ephemeral port
  // actually chosen; for Unix sockets a stale socket file at the path is replaced.
  // `backlog` is the listen(2) queue depth; <= 0 uses SOMAXCONN (a connection burst
  // deeper than a small fixed backlog would otherwise be SYN-dropped and surface as
  // client connect timeouts).
  static StatusOr<Listener> Bind(const ServiceAddress& address, int backlog = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const ServiceAddress& bound_address() const { return bound_; }

  void Close();

 private:
  int fd_ = -1;
  ServiceAddress bound_;
};

}  // namespace dcp

#endif  // DCP_SERVICE_TRANSPORT_H_
