#include "service/event_loop.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

namespace dcp {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) {
    mask |= EPOLLIN;
  }
  if (want_write) {
    mask |= EPOLLOUT;
  }
  return mask;
}

}  // namespace

StatusOr<Poller> Poller::Create() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd < 0) {
    return Status::Internal(Errno("epoll_create1 failed"));
  }
  return Poller(epoll_fd);
}

Poller::~Poller() {
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
  }
}

Poller::Poller(Poller&& other) noexcept
    : epoll_fd_(other.epoll_fd_), interest_(std::move(other.interest_)) {
  other.epoll_fd_ = -1;
  other.interest_.clear();
}

Poller& Poller::operator=(Poller&& other) noexcept {
  if (this != &other) {
    if (epoll_fd_ >= 0) {
      ::close(epoll_fd_);
    }
    epoll_fd_ = other.epoll_fd_;
    interest_ = std::move(other.interest_);
    other.epoll_fd_ = -1;
    other.interest_.clear();
  }
  return *this;
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  if (fd < 0) {
    return Status::InvalidArgument("poller: add of invalid fd");
  }
  if (!interest_.insert(fd).second) {
    return Status::FailedPrecondition("poller: fd " + std::to_string(fd) +
                                      " already registered");
  }
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    interest_.erase(fd);
    return Status::Internal(Errno("epoll_ctl(ADD) failed"));
  }
  return Status::Ok();
}

Status Poller::Modify(int fd, bool want_read, bool want_write) {
  if (interest_.count(fd) == 0) {
    return Status::FailedPrecondition("poller: modify of unregistered fd " +
                                      std::to_string(fd));
  }
  epoll_event ev{};
  ev.events = EpollMask(want_read, want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(Errno("epoll_ctl(MOD) failed"));
  }
  return Status::Ok();
}

void Poller::Remove(int fd) {
  if (interest_.erase(fd) == 0) {
    return;
  }
  // Ignore failures: the fd may already be closed, which removed it implicitly.
  epoll_event ev{};
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, &ev);
}

Status Poller::Wait(int timeout_ms, std::vector<Event>* events) {
  events->clear();
  epoll_event ready[64];
  const int n = ::epoll_wait(epoll_fd_, ready, 64, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) {
      return Status::Ok();
    }
    return Status::Internal(Errno("epoll_wait failed"));
  }
  events->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Event ev;
    ev.fd = ready[i].data.fd;
    ev.readable = (ready[i].events & EPOLLIN) != 0;
    ev.writable = (ready[i].events & EPOLLOUT) != 0;
    ev.hangup = (ready[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(ev);
  }
  return Status::Ok();
}

}  // namespace dcp
