#ifndef SPOTBENCH_SERVER_PROCESS_H_
#define SPOTBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace spotbench {

/// spot_serverd running as a child process. The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it, so no exit
/// path of the benchmark leaves a server behind.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Launches `binary args...` with stderr appended to `log_path`, then
  /// waits (up to `timeout_s`) for the daemon's "listening on <addr>:<port>"
  /// line on stdout. False, with the cause in error(), when it does not
  /// come up.
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, double timeout_s);

  /// SIGTERM and reap (the daemon drains and checkpoints on the way out).
  /// True when it exited with status 0. Idempotent.
  bool Stop();

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  const std::string& error() const { return error_; }

  /// User+system CPU of every live thread of the server, in seconds.
  double CpuSeconds() const;
  /// Peak resident set (VmHWM), in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
};

}  // namespace spotbench

#endif  // SPOTBENCH_SERVER_PROCESS_H_
