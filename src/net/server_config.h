#ifndef SPOT_NET_SERVER_CONFIG_H_
#define SPOT_NET_SERVER_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/protocol.h"

namespace spot {
namespace net {

/// Configuration of the network ingest server. One instance is shared by
/// every reactor (read-only after Start()).
struct SpotServerConfig {
  /// Listen address (loopback by default; expose deliberately).
  std::string bind_address = "127.0.0.1";

  /// TCP port; 0 picks an ephemeral port (read it back via port() after
  /// Start() — the tests and the in-process loadgen mode rely on this).
  std::uint16_t port = 0;

  /// Event loops (DESIGN.md Section 8): each reactor runs its own
  /// epoll loop on its own thread over its own connections; all of them
  /// share the server's one SpotService. Reactor 0 accepts and, with more
  /// than one reactor, deals connections round-robin (connection k lands
  /// on reactor k % num_reactors). Verdicts never depend on the setting —
  /// a session is attached to one connection and processed in arrival
  /// order on that connection's reactor.
  std::size_t num_reactors = 1;

  /// Per-session coalescing target: pending ingested points are run
  /// through the service in ProcessBatch chunks of this size. Larger
  /// batches amortize the per-batch service and engine setup (the session
  /// lease, the engine and its shard fork-joins, one per tile); verdicts
  /// never depend on the setting (the batch engine is bit-identical at
  /// every batch size).
  std::size_t batch_points = 256;

  /// Frame payload cap; a header announcing more is treated as corrupt.
  std::size_t max_payload_bytes = kDefaultMaxPayloadBytes;

  /// Write-side backpressure: when a connection's outbound queue exceeds
  /// this many bytes the server stops reading from that connection until
  /// the queue drains below half — a slow consumer stalls itself, never
  /// its event loop or other connections.
  std::size_t max_output_bytes = 4u << 20;

  /// When positive, sets SO_SNDBUF on accepted connections. The
  /// backpressure tests shrink it so the userspace output queue (and not
  /// the kernel's multi-megabyte loopback buffering) is what fills first;
  /// 0 keeps the OS default.
  int sndbuf_bytes = 0;

  /// Prometheus-text scrape endpoint (DESIGN.md Section 9): when >= 0 the
  /// server runs a minimal HTTP/1.0 responder on its own thread at
  /// `bind_address:metrics_port` (0 = ephemeral; read back via
  /// SpotServer::metrics_port()). -1 disables the endpoint. The wire
  /// kStats scrape is always available regardless of this setting.
  int metrics_port = -1;

  /// When > 0, a ProcessBatch call slower than this many milliseconds
  /// logs a warning (and counts in the reactor's `slow_batches` metric).
  /// 0 disables the warning; the histogram records every batch either way.
  double slow_batch_warn_ms = 0.0;

  /// Per-reactor flight-recorder capacity (DESIGN.md Section 10): each
  /// reactor keeps the last this-many pipeline trace spans
  /// (decode/coalesce/process/shard_probe/encode/write) in a fixed ring,
  /// dumped on demand as Chrome-trace JSON (SIGUSR2, kTraceDump, or
  /// GET /trace). 0 disables tracing entirely — the hot path then pays
  /// one null-pointer test per stage and records nothing.
  std::size_t trace_capacity = 2048;
};

}  // namespace net
}  // namespace spot

#endif  // SPOT_NET_SERVER_CONFIG_H_
