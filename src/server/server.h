// The query daemon's socket layer (DESIGN.md §11) — the process's one
// HTTP/1.1 socket loop. It serves the query endpoints and, through
// QueryService's fallback, the introspection table (/metrics,
// /metrics.json, /healthz, /stream).
//
// Threading model: one acceptor thread plus a ThreadPool of `workers`
// threads whose bounded task queue (`max_pending`) is the admission
// queue. The acceptor submits each accepted connection as one pool task;
// the task owns the connection for its whole keep-alive lifetime, so a
// request never migrates threads and per-connection state needs no
// locking. Pipelined requests on one connection are answered in order
// from the same buffer. Connection tasks count in cellscope.mapred.* and
// show up as pool.queue_wait spans like every other pool task.
//
// Admission control (the shedding policy the fault drill pins):
//   * pool queue full at accept   -> 503 + close, cellscope.server.shed_503
//     (connection-level shed: the client never got a worker)
//   * queue still full when a worker is about to serve a request
//                                 -> 429 + Connection: close, shed_429
//     (backpressure to already-connected clients: finish what you sent,
//     then back off)
// Both are typed replies, never a silent drop, and neither path blocks
// the acceptor — overload degrades throughput, not liveness.
//
// Failpoints: `server.accept.fail` makes an accept attempt fail
// artificially (counted on cellscope.server.accept_errors, connection
// dropped); `server.reply.partial` truncates one response mid-write
// (counted on cellscope.server.reply_partial, connection closed) — the
// client sees a short read, never a corrupted frame followed by more
// traffic.
//
// stop() closes the listen socket, shuts down every live connection,
// destroys the pool — whose drain answers still-queued connections with
// 503 "server shutting down" — and evaluates the server.* quality
// sentinels (error ratio, shed ratio, partial replies) over this
// instance's delta of the process-global counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mapred/thread_pool.h"
#include "server/query_service.h"

namespace cellscope::server {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back with port() — how every test binds).
  std::uint16_t port = 0;
  /// Worker threads; each owns one connection at a time, so this is also
  /// the maximum number of concurrently-served connections.
  std::size_t workers = 4;
  /// Admission-queue capacity (the pool's task-queue bound): connections
  /// accepted but not yet claimed by a worker. Beyond it the acceptor
  /// sheds with 503.
  std::size_t max_pending = 64;
  /// recv() timeout per read; an idle keep-alive connection is closed
  /// after this long (also bounds how long stop() can be held up).
  int read_timeout_ms = 5000;
  /// Wire-format bounds (head/body byte limits).
  HttpLimits limits;
};

/// Multi-threaded HTTP front-end over one QueryService.
class QueryServer {
 public:
  /// `service` must outlive the server.
  explicit QueryServer(QueryService& service, ServerConfig config = {});
  ~QueryServer();  ///< calls stop()

  /// Binds 127.0.0.1:<port>, starts the acceptor and worker pool. Throws
  /// IoError when the socket cannot be bound.
  void start();

  /// Stops accepting, closes every connection, joins all threads, and
  /// evaluates the server.* sentinels. Idempotent.
  void stop();

  /// The bound port (resolved after start() when config.port was 0).
  std::uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  const ServerConfig& config() const { return config_; }

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

 private:
  void accept_loop();
  /// One admitted connection, run as a pool task: serves it, or answers
  /// 503 when stop() has begun. Never throws.
  void run_connection(const ThreadPool& pool, int fd);
  void serve_connection(const ThreadPool& pool, int fd);
  /// write()s the whole frame, honoring the reply.partial failpoint.
  /// Returns false when the write was truncated or failed.
  bool write_frame(int fd, const std::string& frame);

  QueryService& service_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::mutex active_mutex_;
  std::vector<int> active_fds_;  // connections currently owned by workers

  std::thread acceptor_;
  /// Workers + admission queue; lives from start() to stop(). Tasks get
  /// the pool by reference, never through this pointer, which stop()
  /// resets while leftover tasks drain.
  std::unique_ptr<ThreadPool> pool_;

  /// Counter values at start(), for delta-based sentinels (the metrics
  /// are process-global and several servers may run in one process).
  std::uint64_t base_requests_ = 0;
  std::uint64_t base_errors_500_ = 0;
  std::uint64_t base_shed_503_ = 0;
  std::uint64_t base_shed_429_ = 0;
  std::uint64_t base_reply_partial_ = 0;
};

}  // namespace cellscope::server
