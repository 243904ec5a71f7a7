#include "dist/worker.hpp"

#include <exception>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "core/exec/engine.hpp"
#include "core/exec/run_merge.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "seqio/serialize.hpp"
#include "store/index_store.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace scoris::dist {

namespace {

/// Spill-run block size for runs streamed over the wire.  Any value
/// round-trips (the reader takes it from the RHDR section); this one
/// keeps section payloads near the WRUN chunk size.
constexpr std::size_t kWireBlockElems = 4096;

struct WorkerMetrics {
  obs::Counter& connections_accepted;
  obs::Counter& jobs_prepared;
  obs::Counter& groups_executed;
  obs::Counter& groups_failed;
  obs::Counter& run_bytes_sent;
  obs::Histogram& group_seconds;

  static WorkerMetrics& get() {
    static WorkerMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new WorkerMetrics{
          r.counter("scoris_worker_connections_accepted_total",
                    "Coordinator connections admitted (WHLO sent)"),
          r.counter("scoris_worker_jobs_prepared_total",
                    "WJOB setups completed (reference resident, WACK sent)"),
          r.counter("scoris_worker_groups_executed_total",
                    "Plan groups executed to WEND"),
          r.counter("scoris_worker_groups_failed_total",
                    "Groups that ended in WERR"),
          r.counter("scoris_worker_run_bytes_sent_total",
                    "Spill-run bytes streamed to coordinators"),
          r.histogram("scoris_worker_group_seconds",
                      "Wall time per executed group",
                      obs::latency_buckets()),
      };
    }();
    return *m;
  }
};

/// Everything one WJOB setup prepares; lives for the connection.
struct Job {
  Session session;
  seqio::SequenceBank bank2;
};

}  // namespace

struct Worker::Shared {
  WorkerConfig config;

  util::Mutex mu;
  WorkerCounters counters SCORIS_GUARDED_BY(mu);

  [[nodiscard]] obs::Logger& log() {
    return obs::logger_or_silent(config.logger);
  }

  void count(std::uint64_t WorkerCounters::* field) {
    util::MutexLock lock(mu);
    counters.*field += 1;
  }
};

Worker::Worker(WorkerConfig config)
    : shared_(std::make_shared<Shared>()),
      conns_(config.endpoint, config.backlog, config.max_jobs) {
  shared_->config = std::move(config);
}

WorkerCounters Worker::counters() const {
  util::MutexLock lock(shared_->mu);
  return shared_->counters;
}

void Worker::serve() {
  conns_.serve(
      [shared = shared_](net::ConnServer::Conn& conn) {
        handle_conn(*shared, conn);
      },
      [shared = shared_](net::Socket& /*refused*/) {
        // No BUSY tier here: a refused coordinator sees the close and
        // treats the worker as dead, which is the correct fallback.
        shared->log().warn("connection refused",
                           {obs::kv("reason", "max jobs"),
                            obs::kv("max_jobs",
                                    static_cast<unsigned long long>(
                                        shared->config.max_jobs))});
      });
}

namespace {

/// Parse a WJOB payload into a ready-to-execute Job.  Throws
/// std::exception subclasses on any problem (bad ref kind, missing
/// store payload, invalid options); the caller turns those into WERR.
Job prepare_job(const net::Frame& frame, int threads) {
  net::PayloadReader reader(frame.payload, "WJOB");
  const std::uint8_t ref_kind = reader.get_u8();
  const std::string ref = reader.get_string();
  const std::string bank2_bytes = reader.get_string();
  Options options = read_options(reader);
  options.threads = threads;
  std::istringstream bank2(bank2_bytes);
  // The same Session preparation as the coordinator's, so the worker's
  // seed set equals the coordinator's.
  switch (static_cast<RefKind>(ref_kind)) {
    case RefKind::kInlineBank: {
      std::istringstream bank1(ref);
      Session session(seqio::load_bank(bank1), std::move(options));
      return Job{std::move(session), seqio::load_bank(bank2)};
    }
    case RefKind::kIndexPath: {
      Session session(store::load_index(ref), std::move(options));
      return Job{std::move(session), seqio::load_bank(bank2)};
    }
  }
  throw net::NetError("WJOB: unknown reference kind " +
                      std::to_string(ref_kind));
}

void send_error(net::Socket& conn, const std::string& message) {
  net::PayloadWriter err;
  err.put_string(message);
  const std::vector<std::uint8_t> payload = err.take();
  net::write_frame(conn, kWorkerErrorTag, payload);
}

/// Execute one WGRP and stream its run back.  Returns true on WEND,
/// false on a WERR (engine error); transport errors (NetError)
/// propagate and end the connection.
[[nodiscard]] bool serve_group(obs::Logger& log, net::Socket& conn,
                               const Job& job, const GroupTask& task,
                               std::uint64_t conn_id) {
  WorkerMetrics& metrics = WorkerMetrics::get();
  util::WallTimer timer;
  core::exec::ExecResult result;
  try {
    if (task.slice_from > task.slice_to ||
        task.slice_to > job.bank2.size()) {
      throw std::runtime_error(
          "group " + std::to_string(task.id) + ": slice [" +
          std::to_string(task.slice_from) + ", " +
          std::to_string(task.slice_to) + ") exceeds the query bank (" +
          std::to_string(job.bank2.size()) + " sequences)");
    }
    result = core::exec::execute_group(
        job.session.plan(job.bank2, {}),
        {static_cast<std::size_t>(task.slice_from),
         static_cast<std::size_t>(task.slice_to)},
        task.minus);
  } catch (const std::exception& e) {
    // The group failed before any WRUN byte went out (execution is
    // collect-then-stream), so WERR leaves the coordinator's view
    // clean and the connection serving.
    metrics.groups_failed.inc();
    log.warn("group failed",
             {obs::kv("conn", conn_id), obs::kv("group", task.id),
              obs::kv("error", e.what())});
    send_error(conn, e.what());
    return false;
  }

  RunFrameWriter writer(conn);
  std::ostream os(&writer);
  // Without this, a NetError thrown inside a streambuf write would be
  // swallowed into badbit by std::ostream; with badbit in the
  // exception mask the original exception is rethrown to us.
  os.exceptions(std::ios::badbit);
  core::exec::write_spill_run(os, result.alignments, kWireBlockElems);
  writer.flush();

  GroupEnd end;
  end.id = task.id;
  end.elements = result.alignments.size();
  end.run_bytes = writer.bytes_sent();
  net::PayloadWriter done;
  write_group_end(done, end);
  const std::vector<std::uint8_t> payload = done.take();
  net::write_frame(conn, kGroupEndTag, payload);

  const double seconds = timer.seconds();
  metrics.groups_executed.inc();
  metrics.run_bytes_sent.inc(end.run_bytes);
  metrics.group_seconds.observe(seconds);
  log.info("group served",
           {obs::kv("conn", conn_id), obs::kv("group", task.id),
            obs::kv("minus", task.minus ? 1 : 0),
            obs::kv("elements", end.elements),
            obs::kv("bytes", end.run_bytes), obs::kv("seconds", seconds)});
  return true;
}

}  // namespace

void Worker::handle_conn(Shared& shared, net::ConnServer::Conn& conn) {
  const std::uint64_t conn_id = conn.id();
  shared.count(&WorkerCounters::accepted);
  WorkerMetrics::get().connections_accepted.inc();
  shared.log().info("coordinator connected", {obs::kv("conn", conn_id)});
  try {
    converse(shared, conn);
  } catch (const std::exception& e) {
    // Transport died or the coordinator broke protocol: this
    // connection is over; the accept loop keeps serving.
    shared.count(&WorkerCounters::failed);
    shared.log().warn("connection failed", {obs::kv("conn", conn_id),
                                            obs::kv("error", e.what())});
  }
  shared.log().info("coordinator disconnected", {obs::kv("conn", conn_id)});
}

void Worker::converse(Shared& shared, net::ConnServer::Conn& conn) {
  const std::uint64_t conn_id = conn.id();
  net::Socket& sock = conn.socket();
  net::PayloadWriter hello;
  hello.put_u32(kWorkerProtocolVersion);
  const std::vector<std::uint8_t> hello_payload = hello.take();
  net::write_frame(sock, kWorkerHelloTag, hello_payload);

  // Job setup first: exactly one WJOB opens the conversation.  A false
  // next_frame is a hang-up or a stop: close without ceremony.
  net::Frame frame;
  if (!conn.next_frame(frame)) return;
  if (frame.tag != kJobTag) {
    throw net::NetError("expected WJOB, got '" + net::tag_name(frame.tag) +
                        "'");
  }
  std::optional<Job> job;
  try {
    job.emplace(prepare_job(frame, shared.config.threads));
  } catch (const std::exception& e) {
    // Setup failure is connection-fatal by design: a coordinator cannot
    // dispatch groups to a worker with no reference.
    shared.count(&WorkerCounters::failed);
    shared.log().warn("job setup failed", {obs::kv("conn", conn_id),
                                           obs::kv("error", e.what())});
    send_error(sock, e.what());
    return;
  }
  shared.count(&WorkerCounters::jobs);
  WorkerMetrics::get().jobs_prepared.inc();
  net::write_frame(sock, kJobAckTag, std::string_view{});
  shared.log().info(
      "job prepared",
      {obs::kv("conn", conn_id),
       obs::kv("reference_seqs", job->session.reference().size()),
       obs::kv("query_seqs", job->bank2.size())});

  while (conn.next_frame(frame)) {
    if (frame.tag != kGroupTag) {
      throw net::NetError("expected WGRP, got '" + net::tag_name(frame.tag) +
                          "'");
    }
    net::PayloadReader reader(frame.payload, "WGRP");
    const GroupTask task = read_group(reader);
    if (serve_group(shared.log(), sock, *job, task, conn_id)) {
      shared.count(&WorkerCounters::groups);
    } else {
      shared.count(&WorkerCounters::failed);
    }
  }
}

}  // namespace scoris::dist
