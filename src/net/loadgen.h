// Zipf-fleet load generator for NavService, runnable against two
// backends with the SAME deterministic workload: in-process calls
// (RunFleetInProcess) and real sockets through NavServer
// (RunFleetOverSocket). Every simulated user owns an Rng seeded from
// (seed, user index) alone and walks the organization with the
// nav_serving bench policy — descend rank 0 w.p. 0.7 (else a uniform
// rank among the top 3), backtrack w.p. 0.1 above the root, restart via
// refresh at a leaf or max_depth. A user's trace (ops, ranks, states
// visited) therefore depends only on the user index, the seed, and the
// served snapshot — not on connection count, thread scheduling, or the
// backend — which is what the loadgen-vs-oracle equivalence test pins
// down bit for bit.
//
// Connections pipeline: each connection drives its users in lockstep
// rounds, queuing one frame per live user, flushing the burst with one
// write, and reading the replies back in order. On a small machine this
// is the difference between syscall-bound and server-bound throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace lakeorg {

class NavService;

/// One fleet action of one user, as recorded in its trace.
struct TraceEvent {
  /// 'o' open, 'd' descend, 'b' back, 'r' refresh.
  char op = 0;
  /// Descend rank; the query attribute for 'o'; 0 otherwise.
  uint32_t rank = 0;
  /// State id after the op (kInvalidId when the op failed).
  uint32_t state = 0;
  bool ok = false;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.op == b.op && a.rank == b.rank && a.state == b.state &&
           a.ok == b.ok;
  }
  friend bool operator!=(const TraceEvent& a, const TraceEvent& b) {
    return !(a == b);
  }
};

/// The per-user event sequence (opens first, then one event per round).
using UserTrace = std::vector<TraceEvent>;

/// Fleet shape and behavior knobs.
struct FleetOptions {
  /// Simulated users; each opens exactly one session.
  size_t users = 64;
  /// Walk actions per user after the open.
  size_t steps_per_user = 16;
  /// Connections (socket backend) / worker threads (in-process backend).
  /// Users are partitioned into contiguous blocks.
  size_t connections = 2;
  uint64_t seed = 42;
  /// Zipf exponent over the query-attribute ranks.
  double zipf_s = 1.2;
  /// Number of query attributes (the Zipf support; usually
  /// ctx->num_attrs()).
  size_t num_attrs = 0;
  /// Restart depth of the walk policy.
  size_t max_depth = 12;
  /// `k` sent with view requests (0 keeps responses minimal).
  uint64_t k = 0;
  /// When > 0, users with index % leave_open_modulo == 0 skip their
  /// close — the soak's food for the TTL expiry sweep.
  size_t leave_open_modulo = 0;
  /// Immediate retries for an Unavailable (RETRY_LATER) open.
  size_t open_retry_limit = 0;
  /// Record per-user traces (the equivalence test; costs memory).
  bool record_traces = false;
  /// Client receive timeout per reply (socket backend).
  double receive_timeout_seconds = 30.0;
};

/// What a fleet run produced.
struct FleetReport {
  /// Successful opens / steps (descend+back) / refreshes / closes.
  uint64_t opens = 0;
  uint64_t steps = 0;
  uint64_t refreshes = 0;
  uint64_t closes = 0;
  /// Failed operations of any kind (a failed user stops walking).
  uint64_t errors = 0;
  /// Unavailable (RETRY_LATER) responses seen, including retried opens.
  uint64_t retry_later = 0;
  /// Total protocol requests issued (socket) / service calls
  /// (in-process).
  uint64_t requests = 0;
  double seconds = 0.0;
  /// traces[u] is user u's event sequence (record_traces).
  std::vector<UserTrace> traces;

  double RequestsPerSec() const {
    return seconds > 0 ? static_cast<double>(requests) / seconds : 0.0;
  }
};

/// The shared walk policy; exposed so tests can drive it directly.
struct WalkAction {
  char op;      ///< 'd', 'b', or 'r'.
  size_t rank;  ///< For 'd'.
};
WalkAction NextWalkAction(size_t num_choices, size_t depth, size_t max_depth,
                          Rng* rng);

/// Runs the fleet against `service` directly (the oracle).
FleetReport RunFleetInProcess(NavService* service, const FleetOptions& options);

/// Runs the fleet over TCP against a NavServer at host:port.
Result<FleetReport> RunFleetOverSocket(const std::string& host, uint16_t port,
                                       const FleetOptions& options);

}  // namespace lakeorg
