#include "daemon/server.hpp"

#include <exception>
#include <stdexcept>
#include <utility>
#include <vector>

#include "compare/m8.hpp"
#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"
#include "seqio/fasta.hpp"
#include "util/timer.hpp"

namespace scoris::daemon {

namespace {

/// Daemon-level metrics in the process registry.  References are
/// resolved once (registration takes the registry lock) and reused;
/// every increment after that is a relaxed sharded atomic.
struct DaemonMetrics {
  obs::Counter& connections_accepted;
  obs::Counter& busy_refusals;
  obs::Counter& queries_started;
  obs::Counter& queries_completed;
  obs::Counter& queries_errored;
  obs::Counter& bytes_sent;
  obs::Gauge& active_connections;
  obs::Histogram& query_seconds;

  static DaemonMetrics& get() {
    static DaemonMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new DaemonMetrics{
          r.counter("scorisd_connections_accepted_total",
                    "Connections admitted (HELO sent)"),
          r.counter("scorisd_busy_refusals_total",
                    "Connections refused with BUSY (admission control)"),
          r.counter("scorisd_queries_started_total",
                    "QRY frames whose processing began"),
          r.counter("scorisd_queries_completed_total",
                    "Queries that reached DONE"),
          r.counter("scorisd_queries_errored_total",
                    "Queries that ended in ERR or a dropped connection"),
          r.counter("scorisd_bytes_sent_total",
                    "m8 result bytes streamed to clients"),
          r.gauge("scorisd_active_connections",
                  "Currently admitted client connections"),
          r.histogram("scorisd_query_seconds",
                      "Server-side wall time per query",
                      obs::latency_buckets()),
      };
    }();
    return *m;
  }
};

}  // namespace

void SocketM8Sink::on_group(std::span<const align::GappedAlignment> hits,
                            const HitBatch& batch) {
  // The same conversion path as M8Writer, so a networked query is
  // byte-identical to a local `scoris search` over the same inputs.
  for (const align::GappedAlignment& a : hits) {
    const std::string line =
        compare::format_m8(compare::to_m8(a, *batch.bank1, *batch.bank2));
    buffer_ += line;
    buffer_ += '\n';
    row_bytes_ += line.size() + 1;
    ++rows_;
    if (buffer_.size() >= chunk_bytes_) {
      // send_all blocks while the client's receive window is full: the
      // engine's delivery thread stalls here, which is exactly the
      // per-query backpressure that keeps a slow client from ballooning
      // the daemon's memory.  A vanished client throws NetError out
      // through the engine, unwinding (and spill-cleaning) this query
      // only.
      net::write_frame(*sock_, net::kRowsTag, std::string_view(buffer_));
      buffer_.clear();
    }
  }
}

void SocketM8Sink::flush() {
  if (!buffer_.empty()) {
    net::write_frame(*sock_, net::kRowsTag, std::string_view(buffer_));
    buffer_.clear();
  }
}

struct Server::Shared {
  const Session* session = nullptr;
  ServerConfig config;

  util::Mutex mu;
  ServerCounters counters SCORIS_GUARDED_BY(mu);

  [[nodiscard]] obs::Logger& log() {
    return obs::logger_or_silent(config.logger);
  }

  void count(std::uint64_t ServerCounters::* field) {
    util::MutexLock lock(mu);
    counters.*field += 1;
  }
};

Server::Server(const Session& session, ServerConfig config)
    : shared_(std::make_shared<Shared>()),
      conns_(config.endpoint, config.backlog, config.max_clients) {
  shared_->session = &session;
  shared_->config = std::move(config);
}

ServerCounters Server::counters() const {
  util::MutexLock lock(shared_->mu);
  return shared_->counters;
}

void Server::serve() {
  conns_.serve(
      [shared = shared_](net::ConnServer::Conn& conn) {
        handle_client(*shared, conn);
      },
      [shared = shared_](net::Socket& client) {
        shared->count(&ServerCounters::rejected);
        DaemonMetrics::get().busy_refusals.inc();
        shared->log().warn("connection refused",
                           {obs::kv("reason", "max clients"),
                            obs::kv("max_clients",
                                    static_cast<unsigned long long>(
                                        shared->config.max_clients))});
        try {
          net::PayloadWriter busy;
          busy.put_string("all " +
                          std::to_string(shared->config.max_clients) +
                          " client slots are in use, try again later");
          const std::vector<std::uint8_t> payload = busy.take();
          net::write_frame(client, net::kBusyTag, payload);
        } catch (const net::NetError&) {
          // The refused client vanished first; nothing to tell it.
        }
      });
}

void Server::handle_client(Shared& shared, net::ConnServer::Conn& conn) {
  const std::uint64_t conn_id = conn.id();
  shared.count(&ServerCounters::accepted);
  DaemonMetrics::get().connections_accepted.inc();
  DaemonMetrics::get().active_connections.add(1);
  shared.log().info("connection accepted", {obs::kv("conn", conn_id)});
  net::Socket& client = conn.socket();
  try {
    net::PayloadWriter hello;
    hello.put_u32(net::kProtocolVersion);
    hello.put_u64(shared.config.max_query_bytes);
    const std::vector<std::uint8_t> payload = hello.take();
    net::write_frame(client, net::kHelloTag, payload);

    net::Frame frame;
    // A false return is a hang-up or a stop: close without ceremony.
    while (conn.next_frame(frame)) {
      if (frame.tag == net::kStatTag) {
        // Snapshot outside any lock the query path touches; the render
        // only takes the registry's registration mutex.
        const std::string snapshot =
            obs::Registry::global().render_prometheus();
        net::write_frame(client, net::kStatTag, snapshot);
        shared.log().debug("stats snapshot served",
                           {obs::kv("conn", conn_id),
                            obs::kv("bytes", snapshot.size())});
        continue;
      }
      if (frame.tag != net::kQueryTag) {
        throw net::NetError("expected QRY or STAT, got '" +
                            net::tag_name(frame.tag) + "'");
      }
      serve_query(shared, client, frame, conn_id);
    }
  } catch (const std::exception& e) {
    // Transport died or the client broke protocol: this connection is
    // over, every other client is untouched.
    shared.count(&ServerCounters::failed);
    shared.log().warn("connection failed", {obs::kv("conn", conn_id),
                                            obs::kv("error", e.what())});
  }
  DaemonMetrics::get().active_connections.sub(1);
  shared.log().info("connection closed", {obs::kv("conn", conn_id)});
}

void Server::serve_query(Shared& shared, net::Socket& client,
                         const net::Frame& request, std::uint64_t conn_id) {
  // Per-query failures (bad FASTA, oversized payload, engine errors)
  // produce an ERR frame and leave the connection serving; only a dead
  // transport (NetError from a send) propagates to handle_client.
  DaemonMetrics& metrics = DaemonMetrics::get();
  metrics.queries_started.inc();
  util::WallTimer timer;
  std::string error;
  try {
    if (request.payload.size() > shared.config.max_query_bytes) {
      throw std::runtime_error(
          "query of " + std::to_string(request.payload.size()) +
          " bytes exceeds the server limit of " +
          std::to_string(shared.config.max_query_bytes));
    }
    net::PayloadReader reader(request.payload, "QRY");
    const std::uint8_t strand_byte = reader.get_u8();
    const seqio::SequenceBank bank2 =
        seqio::read_fasta_string(reader.rest(), "query");

    SearchLimits limits = shared.config.base_limits;
    switch (static_cast<net::QueryStrand>(strand_byte)) {
      case net::QueryStrand::kDefault:
        break;
      case net::QueryStrand::kPlus:
        limits.strand = seqio::Strand::kPlus;
        break;
      case net::QueryStrand::kMinus:
        limits.strand = seqio::Strand::kMinus;
        break;
      case net::QueryStrand::kBoth:
        limits.strand = seqio::Strand::kBoth;
        break;
      default:
        throw std::runtime_error("bad strand byte " +
                                 std::to_string(strand_byte));
    }

    SocketM8Sink sink(client, shared.config.chunk_bytes);
    shared.session->search(bank2, sink, limits);
    sink.flush();

    const double seconds = timer.seconds();
    net::PayloadWriter done;
    done.put_u64(sink.rows());
    done.put_u64(sink.row_bytes());
    done.put_f64(seconds);
    const std::vector<std::uint8_t> payload = done.take();
    net::write_frame(client, net::kDoneTag, payload);
    shared.count(&ServerCounters::served);
    metrics.queries_completed.inc();
    metrics.bytes_sent.inc(sink.row_bytes());
    metrics.query_seconds.observe(seconds);
    shared.log().info("query served",
                      {obs::kv("conn", conn_id), obs::kv("rows", sink.rows()),
                       obs::kv("bytes", sink.row_bytes()),
                       obs::kv("seconds", seconds)});
    return;
  } catch (const net::NetError&) {
    shared.count(&ServerCounters::failed);
    metrics.queries_errored.inc();
    metrics.query_seconds.observe(timer.seconds());
    throw;  // connection-fatal: the handler closes it
  } catch (const std::exception& e) {
    error = e.what();
  }
  shared.count(&ServerCounters::failed);
  metrics.queries_errored.inc();
  metrics.query_seconds.observe(timer.seconds());
  shared.log().warn("query failed", {obs::kv("conn", conn_id),
                                     obs::kv("error", error)});
  net::PayloadWriter err;
  err.put_string(error);
  const std::vector<std::uint8_t> payload = err.take();
  net::write_frame(client, net::kErrorTag, payload);
}

}  // namespace scoris::daemon
