#include "net/poller.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>

namespace spot {
namespace net {

namespace {

epoll_event MakeEvent(int fd, bool read, bool write) {
  epoll_event ev{};
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  return ev;
}

}  // namespace

bool EpollPoller::Open() {
  epfd_ = ::epoll_create1(0);
  return epfd_ >= 0;
}

void EpollPoller::Close() {
  if (epfd_ >= 0) ::close(epfd_);
  epfd_ = -1;
}

bool EpollPoller::Add(int fd, bool read, bool write) {
  epoll_event ev = MakeEvent(fd, read, write);
  return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

void EpollPoller::Update(int fd, bool read, bool write) {
  epoll_event ev = MakeEvent(fd, read, write);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
}

void EpollPoller::Remove(int fd) {
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EpollPoller::Wait(int timeout_ms, std::vector<Event>* out) {
  out->clear();
  epoll_event events[64];
  const int n = ::epoll_wait(epfd_, events, 64, timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Event e;
    e.fd = events[i].data.fd;
    e.readable = (events[i].events & EPOLLIN) != 0;
    e.writable = (events[i].events & EPOLLOUT) != 0;
    e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    out->push_back(e);
  }
  return n;
}

}  // namespace net
}  // namespace spot
