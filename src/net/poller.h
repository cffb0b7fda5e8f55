#ifndef SPOT_NET_POLLER_H_
#define SPOT_NET_POLLER_H_

#include <vector>

namespace spot {
namespace net {

/// Level-triggered epoll(7) readiness notification, so a partially drained
/// buffer simply re-reports. Each reactor owns one; it is not thread-safe
/// and must only be touched from its reactor's loop thread.
class EpollPoller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  EpollPoller() = default;
  ~EpollPoller() { Close(); }
  EpollPoller(const EpollPoller&) = delete;
  EpollPoller& operator=(const EpollPoller&) = delete;

  /// Creates the epoll instance; false (with errno set) when
  /// epoll_create1 fails.
  bool Open();
  void Close();
  bool is_open() const { return epfd_ >= 0; }

  bool Add(int fd, bool read, bool write);
  void Update(int fd, bool read, bool write);
  void Remove(int fd);
  /// Waits up to `timeout_ms`; fills `out`. Returns the event count, 0 on
  /// timeout, -1 on a wait error other than EINTR.
  int Wait(int timeout_ms, std::vector<Event>* out);

 private:
  int epfd_ = -1;
};

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_POLLER_H_
