#include "server_process.h"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace spotbench {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args,
                          const std::string& log_path, double timeout_s) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    error_ = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    error_ = "spawn " + binary + ": " + std::strerror(rc);
    return false;
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::string out;
  for (;;) {
    const std::size_t at = out.find("listening on ");
    const std::size_t eol =
        at == std::string::npos ? std::string::npos : out.find('\n', at);
    if (eol != std::string::npos) {
      const std::size_t colon = out.find(':', at);
      if (colon == std::string::npos || colon > eol) break;
      port_ = static_cast<std::uint16_t>(
          std::strtoul(out.c_str() + colon + 1, nullptr, 10));
      if (port_ != 0) return true;
      break;
    }
    const double left = timeout_s - SecondsSince(t0);
    if (left <= 0) {
      error_ = "spot_serverd not ready after " + std::to_string(timeout_s) +
               " s";
      return false;
    }
    pollfd p{stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) < 0 &&
        errno != EINTR) {
      break;
    }
    char buf[4096];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n == 0) {
      error_ = "spot_serverd exited during start-up (see " + log_path + ")";
      return false;
    }
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  }
  error_ = "cannot parse spot_serverd's listening line: " + out;
  return false;
}

bool ServerProcess::Stop() {
  bool clean = true;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto t0 = std::chrono::steady_clock::now();
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 &&
           SecondsSince(t0) < 30.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      clean = false;
    } else {
      clean = done == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
  return clean;
}

double ServerProcess::CpuSeconds() const {
  // schedstat's first field is the task's on-CPU time in ns (user + system),
  // exact where /proc/<pid>/stat rounds to clock ticks. The daemon's
  // threads (reactors, shard workers) live as long as the process, so the
  // sum over live tasks misses nothing inside a measured window.
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return -1.0;
  double total_ns = 0.0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) total_ns += ns;
  }
  ::closedir(d);
  return total_ns * 1e-9;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace spotbench
