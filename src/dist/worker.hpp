// scoris worker — the remote shard-executor daemon of distributed
// execution.
//
// One Worker process sits on an endpoint and executes plan groups for
// whichever coordinator connects: the coordinator ships the reference,
// the query bank, and the output-affecting options in one WJOB frame
// (see dist/protocol.hpp), then feeds WGRP requests one at a time; the
// worker runs each group through the ordinary exec engine and streams
// the group's sorted step-4 run back as spill-run bytes.
//
// The connection lifecycle (bind, accept loop, admission, per-connection
// threads, async-signal-safe stop, drain) is net::ConnServer's, shared
// with `scoris serve`.  This file holds the worker conversation only:
// WHLO, one WJOB, then WGRP requests each answered by WRUN frames and
// WEND (or WERR).  A connection refused at `max_jobs` is closed without
// a word.  The WJOB reference becomes a Session, indexed from the inline
// bank or adopted from the loaded .scix with the job's options, and it
// lives as long as the connection.
//
// Failure containment mirrors the daemon's: an engine error inside one
// group produces a WERR frame and the connection keeps serving; only a
// dead transport ends the connection, after which the handler discards
// the job and the accept loop takes the next coordinator.  Workers
// never create temp files — runs stream straight from memory to the
// socket — so a coordinator that dies mid-stream leaks nothing here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "net/conn_server.hpp"
#include "obs/log.hpp"

namespace scoris::dist {

struct WorkerConfig {
  net::Endpoint endpoint;  ///< listen address (TCP or unix)
  int backlog = 16;        ///< kernel accept-queue bound
  /// Engine threads per job (the worker's own execution shape; the
  /// coordinator's options blob deliberately does not carry one).
  int threads = 1;
  /// Concurrent coordinator connections.  More than one is unusual —
  /// each holds its own reference copy — but harmless.
  std::size_t max_jobs = 2;
  /// Structured logger (not owned; must outlive serve()).  nullptr
  /// silences the worker; metrics still accumulate in the registry.
  obs::Logger* logger = nullptr;
};

/// Tallies exposed for tests and the shutdown log line.
struct WorkerCounters {
  std::uint64_t accepted = 0;  ///< connections admitted (WHLO sent)
  std::uint64_t jobs = 0;      ///< WJOB setups completed (WACK sent)
  std::uint64_t groups = 0;    ///< groups executed to WEND
  std::uint64_t failed = 0;    ///< WERR frames sent or connections dropped
};

class Worker {
 public:
  explicit Worker(WorkerConfig config);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Bind + listen now (throws NetError), resolving TCP port 0 so the
  /// real address is known before serve() blocks.
  void bind() { conns_.bind(); }

  /// Accept loop.  Blocks until request_stop(), then drains in-flight
  /// groups and returns.  Calls bind() if it has not happened yet.
  void serve();

  /// Async-signal-safe stop: one write(2) on the wake pipe.
  void request_stop() { conns_.request_stop(); }

  /// The resolved listen endpoint.  Valid after bind().
  [[nodiscard]] const net::Endpoint& endpoint() const {
    return conns_.endpoint();
  }

  [[nodiscard]] WorkerCounters counters() const;

  /// The underlying connection server (for signal-driven stops).
  [[nodiscard]] net::ConnServer& connections() { return conns_; }

 private:
  struct Shared;

  static void handle_conn(Shared& shared, net::ConnServer::Conn& conn);
  static void converse(Shared& shared, net::ConnServer::Conn& conn);

  std::shared_ptr<Shared> shared_;
  net::ConnServer conns_;
};

}  // namespace scoris::dist
