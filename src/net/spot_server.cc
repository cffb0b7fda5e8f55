#include "net/spot_server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <fcntl.h>

#include <iterator>
#include <utility>

#include "common/log.h"
#include "obs/exposition.h"
#include "obs/perf_counters.h"

namespace spot {
namespace net {

namespace {

/// listen(2) backlog of the server's one listener.
constexpr int kListenBacklog = 64;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::atomic<SpotServer*> g_signal_server{nullptr};
std::atomic<bool> g_trace_requested{false};

void StopOnSignal(int /*signo*/) {
  SpotServer* server = g_signal_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->Stop();  // a single atomic store
}

void TraceOnSignal(int /*signo*/) {
  // Only latch a flag (async-signal-safe); the binary's watcher thread
  // renders and writes the dump outside signal context.
  g_trace_requested.store(true, std::memory_order_relaxed);
}

}  // namespace

SpotServer::SpotServer(SpotServiceConfig service_config,
                       SpotServerConfig config)
    : config_(std::move(config)), service_(std::move(service_config)) {
  if (config_.batch_points == 0) config_.batch_points = 1;
  if (config_.num_reactors == 0) config_.num_reactors = 1;
  hub_ = obs::MetricsHub(config_.num_reactors);
  if (config_.trace_capacity > 0) {
    traces_.reserve(config_.num_reactors);
    for (std::size_t i = 0; i < config_.num_reactors; ++i) {
      traces_.push_back(std::make_unique<obs::TraceRecorder>(
          config_.trace_capacity, static_cast<std::uint32_t>(i)));
    }
  }
  reactors_.reserve(config_.num_reactors);
  for (std::size_t i = 0; i < config_.num_reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(
        static_cast<int>(i), config_, &service_, &stop_, &hub_,
        [this] { return StatsSnapshot(); }));
    if (!traces_.empty()) {
      reactors_.back()->SetTracing(traces_[i].get(),
                                   [this] { return TraceJson(); });
    }
  }
}

SpotServer::~SpotServer() {
  Stop();
  Shutdown();
  if (g_signal_server.load(std::memory_order_relaxed) == this) {
    g_signal_server.store(nullptr, std::memory_order_relaxed);
  }
}

void SpotServer::InstallSignalHandlers(SpotServer* server) {
  g_signal_server.store(server, std::memory_order_relaxed);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = StopOnSignal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = TraceOnSignal;
  ::sigaction(SIGUSR2, &sa, nullptr);
  // Writes to a peer-closed socket must surface as EPIPE, not kill the
  // process (the loop also passes MSG_NOSIGNAL, this covers stray paths).
  ::signal(SIGPIPE, SIG_IGN);
}

bool SpotServer::TraceRequested() {
  return g_trace_requested.exchange(false, std::memory_order_relaxed);
}

int SpotServer::MakeListener(std::uint16_t* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    SPOT_LOG(Error) << "socket(): " << std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(*port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    SPOT_LOG(Error) << "bad bind address '" << config_.bind_address << "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, kListenBacklog) != 0 || !SetNonBlocking(fd)) {
    SPOT_LOG(Error) << "bind/listen on " << config_.bind_address << ":"
                    << *port << ": " << std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *port = ntohs(bound.sin_port);
  }
  return fd;
}

bool SpotServer::Start() {
  for (auto& reactor : reactors_) {
    if (!reactor->Init()) return false;
  }

  // One listener, on reactor 0. With more reactors it accepts on behalf
  // of all of them and deals connections round-robin.
  const std::size_t n = reactors_.size();
  std::uint16_t port = config_.port;
  const int fd = MakeListener(&port);
  if (fd < 0) return false;
  std::vector<Reactor*> targets;
  if (n > 1) {
    targets.reserve(n);
    for (auto& reactor : reactors_) targets.push_back(reactor.get());
  }
  reactors_[0]->AdoptListener(fd, std::move(targets));
  port_ = port;

  if (config_.metrics_port >= 0) {
    exporter_ = std::make_unique<obs::HttpExporter>(
        config_.bind_address, config_.metrics_port,
        [this] { return PrometheusText(); });
    exporter_->AddRoute("/trace", [this] { return TraceJson(); });
    exporter_->AddRoute("/journal", [this] { return JournalJson(); });
    std::string error;
    if (!exporter_->Start(&error)) {
      SPOT_LOG(Error) << "metrics endpoint: " << error;
      exporter_.reset();
      return false;
    }
    SPOT_LOG(Info) << "metrics endpoint on " << config_.bind_address << ":"
                   << exporter_->port() << "/metrics (/trace, /journal)";
  }

  SPOT_LOG(Info) << "spot server listening on " << config_.bind_address
                 << ":" << port_ << " (" << n << " reactor"
                 << (n == 1 ? "" : "s") << ")";
  return true;
}

void SpotServer::Run() {
  threads_.reserve(reactors_.size());
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads_.emplace_back([reactor = reactors_[i].get()] { reactor->Run(); });
  }
  reactors_[0]->Run();
  Shutdown();
}

void SpotServer::Shutdown() {
  Stop();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // The exporter thread reads hub and service state; stop it before the
  // reactors publish their final snapshots and everything winds down.
  if (exporter_ != nullptr) exporter_->Stop();
  // Each reactor's Run() already shut it down; this covers reactors
  // whose loop never ran (Shutdown is idempotent per reactor).
  for (auto& reactor : reactors_) reactor->Shutdown();
  // Every loop has drained and been joined: one checkpoint covers every
  // point any connection delivered.
  if (!service_.config().checkpoint_dir.empty()) {
    if (service_.CheckpointAll()) {
      SPOT_LOG(Info) << "shutdown checkpoint: all sessions saved";
    } else {
      SPOT_LOG(Error) << "shutdown checkpoint failed for some sessions";
    }
  }
}

StatsResp SpotServer::StatsSnapshot() const {
  StatsResp resp;
  resp.reactors = hub_.All();
  resp.service = service_.ObsSnapshot();
  // Read only here, so a server nobody scrapes never reads /proc.
  obs::WriteProcessGauges(&resp.service);
  resp.sessions = service_.QualitySnapshot();
  return resp;
}

std::string SpotServer::PrometheusText() const {
  StatsResp snap = StatsSnapshot();
  std::vector<obs::LabeledSnapshot> sections;
  sections.reserve(snap.reactors.size() + 1 + snap.sessions.size());
  for (std::size_t i = 0; i < snap.reactors.size(); ++i) {
    sections.emplace_back("reactor=\"" + std::to_string(i) + "\"",
                          std::move(snap.reactors[i]));
  }
  sections.emplace_back("", std::move(snap.service));
  sections.insert(sections.end(),
                  std::make_move_iterator(snap.sessions.begin()),
                  std::make_move_iterator(snap.sessions.end()));
  return obs::RenderPrometheus(sections);
}

std::string SpotServer::TraceJson() const {
  std::vector<std::vector<obs::TraceEvent>> snapshots;
  snapshots.reserve(traces_.size());
  for (const auto& recorder : traces_) {
    snapshots.push_back(recorder->Snapshot());
  }
  return obs::RenderChromeTrace(snapshots);
}

std::string SpotServer::JournalJson() const {
  return service_.journal().RenderJson();
}

int SpotServer::metrics_port() const {
  return exporter_ != nullptr ? exporter_->port() : -1;
}

}  // namespace net
}  // namespace spot
