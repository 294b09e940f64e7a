// Readiness multiplexing for the planning service's IO threads: one Poller per IO
// thread watches every socket that thread owns through one epoll instance
// (level-triggered — the server drains until EAGAIN, so level semantics are exact and
// re-arm free). epoll is Linux-only, like the eventfd wakeups the server is built on.
//
// A Poller is single-threaded by design: Add/Modify/Remove/Wait are only ever called
// from the loop thread that owns it. Cross-thread wakeups go through an eventfd the
// owner registers like any other fd.
#ifndef DCP_SERVICE_EVENT_LOOP_H_
#define DCP_SERVICE_EVENT_LOOP_H_

#include <unordered_set>
#include <vector>

#include "common/status.h"

namespace dcp {

class Poller {
 public:
  // Opens the epoll instance; fails when epoll_create1 does.
  static StatusOr<Poller> Create();
  ~Poller();

  Poller(Poller&& other) noexcept;
  Poller& operator=(Poller&& other) noexcept;
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  // Watches `fd`. want_read/want_write may both be false: the fd stays registered
  // (errors and hangups are still reported) but produces no readiness events.
  Status Add(int fd, bool want_read, bool want_write);
  Status Modify(int fd, bool want_read, bool want_write);
  void Remove(int fd);

  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    // EPOLLERR/EPOLLHUP: the owner should attempt a read (to harvest the error or
    // EOF) and close.
    bool hangup = false;
  };

  // Blocks up to `timeout_ms` (-1: forever) and fills `events` (cleared first) with
  // every ready fd. EINTR returns OK with no events.
  Status Wait(int timeout_ms, std::vector<Event>* events);

 private:
  explicit Poller(int epoll_fd) : epoll_fd_(epoll_fd) {}

  int epoll_fd_ = -1;
  // Registered fds: double-add and modify-of-unknown are bugs worth catching.
  std::unordered_set<int> interest_;
};

}  // namespace dcp

#endif  // DCP_SERVICE_EVENT_LOOP_H_
