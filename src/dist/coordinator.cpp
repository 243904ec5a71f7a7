#include "dist/coordinator.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <istream>
#include <sstream>
#include <thread>
#include <utility>

#include "core/exec/engine.hpp"
#include "core/exec/run_merge.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "seqio/serialize.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace scoris::dist {

namespace {

struct DistMetrics {
  obs::Counter& groups_remote;
  obs::Counter& groups_local;
  obs::Counter& runs_received;
  obs::Counter& wire_bytes_received;
  obs::Counter& worker_retries;
  obs::Counter& workers_failed;
  obs::Histogram& remote_group_seconds;

  static DistMetrics& get() {
    static DistMetrics* m = [] {
      obs::Registry& r = obs::Registry::global();
      return new DistMetrics{
          r.counter("scoris_dist_groups_remote_total",
                    "Plan groups completed by remote workers"),
          r.counter("scoris_dist_groups_local_total",
                    "Plan groups completed by the coordinator thread"),
          r.counter("scoris_dist_runs_received_total",
                    "Sorted runs received from workers"),
          r.counter("scoris_dist_wire_bytes_received_total",
                    "Spill-run payload bytes received from workers"),
          r.counter("scoris_dist_worker_retries_total",
                    "Worker re-dial attempts after a connection failure"),
          r.counter("scoris_dist_workers_failed_total",
                    "Workers given up on (retry budget exhausted)"),
          r.histogram("scoris_dist_remote_group_seconds",
                      "Wall time per remotely executed group "
                      "(dispatch to run received)",
                      obs::latency_buckets()),
      };
    }();
    return *m;
  }
};

/// Work-queue + completion state shared by the executor threads.  A
/// task is either pending (in `pending`), in flight (popped, not yet
/// completed), or done; a dying worker pushes its in-flight task back,
/// so every task is eventually completed by *someone* — the local
/// executor in the worst case.
struct TaskQueue {
  util::Mutex mu;
  util::CondVar cv;
  std::deque<GroupTask> pending SCORIS_GUARDED_BY(mu);
  std::size_t completed SCORIS_GUARDED_BY(mu) = 0;
  std::size_t total SCORIS_GUARDED_BY(mu) = 0;
  bool failed SCORIS_GUARDED_BY(mu) = false;
  std::string error SCORIS_GUARDED_BY(mu);

  /// Seed the queue before any executor thread starts.
  void init(std::deque<GroupTask> tasks) {
    util::MutexLock lock(mu);
    total = tasks.size();
    pending = std::move(tasks);
  }

  /// Pop for a remote worker: never waits — an empty queue means the
  /// remaining tasks are in flight elsewhere, and a remote thread with
  /// nothing to take is done for good.
  [[nodiscard]] bool try_pop(GroupTask& task) {
    util::MutexLock lock(mu);
    if (failed || pending.empty()) return false;
    task = pending.front();
    pending.pop_front();
    return true;
  }

  /// Pop for the local executor: waits until a task is available (some
  /// worker may yet requeue one) or everything completed or failed.
  /// Returns false when the search is over.
  [[nodiscard]] bool wait_pop(GroupTask& task) {
    util::MutexLock lock(mu);
    while (!failed && completed != total && pending.empty()) cv.wait(mu);
    if (failed || pending.empty()) return false;
    task = pending.front();
    pending.pop_front();
    return true;
  }

  void complete() {
    {
      util::MutexLock lock(mu);
      ++completed;
    }
    cv.notify_all();
  }

  /// Put a dead worker's in-flight task back at the *front*: it is the
  /// oldest outstanding work and the merge cannot finish without it.
  void requeue(const GroupTask& task) {
    {
      util::MutexLock lock(mu);
      pending.push_front(task);
    }
    cv.notify_all();
  }

  void fail(const std::string& what) {
    {
      util::MutexLock lock(mu);
      if (!failed) {
        failed = true;
        error = what;
      }
    }
    cv.notify_all();
  }

  [[nodiscard]] bool is_failed() {
    util::MutexLock lock(mu);
    return failed;
  }
};

/// The serialized WJOB payload plus everything an executor needs.
struct DistShared {
  std::vector<std::uint8_t> job_payload;
  DistConfig config;
  obs::TraceRecorder* trace = nullptr;
  TaskQueue queue;
  util::Mutex merge_mu;
  core::exec::RunMerger* merger SCORIS_PT_GUARDED_BY(merge_mu) = nullptr;

  [[nodiscard]] obs::Logger& log() const {
    return obs::logger_or_silent(config.logger);
  }
};

/// Dial one worker and run the WHLO/WJOB/WACK handshake.  Returns an
/// invalid socket when the worker cannot be brought up within the
/// retry budget (logged; never throws).
[[nodiscard]] net::Socket bring_up_worker(DistShared& shared,
                                          const net::Endpoint& ep,
                                          std::size_t widx) {
  const net::RetryPolicy& retry = shared.config.retry;
  const std::string where = net::to_string(ep);
  for (int attempt = 0; attempt <= retry.retries; ++attempt) {
    if (shared.queue.is_failed()) return net::Socket();
    if (attempt > 0) {
      DistMetrics::get().worker_retries.inc();
      net::sleep_ms(retry.delay_ms(attempt - 1));
    }
    try {
      net::Socket sock =
          net::connect_endpoint(ep, shared.config.connect_timeout_ms);
      net::set_recv_timeout(sock, shared.config.recv_timeout_ms);
      net::Frame frame;
      if (!net::read_frame(sock, frame) || frame.tag != kWorkerHelloTag) {
        throw net::NetError("worker did not say WHLO");
      }
      net::PayloadReader hello(frame.payload, "WHLO");
      const std::uint32_t version = hello.get_u32();
      if (version > kWorkerProtocolVersion) {
        // A future worker may frame runs differently; refusing is the
        // only safe move (and not retryable).
        shared.log().warn("worker too new",
                          {obs::kv("worker", where),
                           obs::kv("version", version)});
        return net::Socket();
      }
      net::write_frame(sock, kJobTag, shared.job_payload);
      if (!net::read_frame(sock, frame)) {
        throw net::NetError("worker hung up before WACK");
      }
      if (frame.tag == kWorkerErrorTag) {
        net::PayloadReader err(frame.payload, "worker error");
        // Setup rejection (bad index path, option mismatch) is
        // deterministic; retrying would loop.
        shared.log().warn("worker rejected job",
                          {obs::kv("worker", where),
                           obs::kv("error", err.get_string())});
        return net::Socket();
      }
      if (frame.tag != kJobAckTag) {
        throw net::NetError("expected WACK, got '" +
                            net::tag_name(frame.tag) + "'");
      }
      shared.log().info("worker ready", {obs::kv("worker", where),
                                         obs::kv("index", widx)});
      return sock;
    } catch (const std::exception& e) {
      shared.log().warn("worker connect failed",
                        {obs::kv("worker", where),
                         obs::kv("attempt", attempt),
                         obs::kv("error", e.what())});
    }
  }
  DistMetrics::get().workers_failed.inc();
  return net::Socket();
}

/// Dispatch one group to a connected worker and merge the returned run.
/// Throws (NetError or std::runtime_error) on any transport, timeout,
/// or validation failure — the caller requeues the task.
void run_remote_group(DistShared& shared, net::Socket& sock,
                      const GroupTask& task, const std::string& where) {
  util::WallTimer timer;
  obs::Span span(shared.trace, "remote group " + std::to_string(task.id),
                 "worker " + where);
  net::PayloadWriter req;
  write_group(req, task);
  const std::vector<std::uint8_t> payload = req.take();
  net::write_frame(sock, kGroupTag, payload);

  RunFrameReader frames(sock);
  std::istream is(&frames);
  // NetError thrown inside the streambuf must reach us, not vanish
  // into badbit (see [istream]'s exception-swallowing default).
  is.exceptions(std::ios::badbit);
  core::exec::SpillRunReader reader(is, "worker " + where + " run");
  std::vector<align::GappedAlignment> run;
  run.reserve(reader.total());
  for (;;) {
    std::vector<align::GappedAlignment> block = reader.next_block(is);
    if (block.empty()) break;
    run.insert(run.end(), block.begin(), block.end());
  }
  // The WEND frame sits behind the last run block; one more read pulls
  // it through the streambuf (is.peek() returns EOF at that point).
  if (is.peek() != std::istream::traits_type::eof() || !frames.done()) {
    throw net::NetError("worker " + where +
                        ": trailing bytes after the run");
  }
  const GroupEnd& end = frames.end();
  if (end.id != task.id || end.elements != run.size() ||
      end.run_bytes != frames.bytes_received()) {
    throw net::NetError(
        "worker " + where + ": WEND disagrees with the streamed run "
        "(group " + std::to_string(end.id) + "/" +
        std::to_string(task.id) + ", elements " +
        std::to_string(end.elements) + "/" + std::to_string(run.size()) +
        ", bytes " + std::to_string(end.run_bytes) + "/" +
        std::to_string(frames.bytes_received()) + ")");
  }

  DistMetrics& metrics = DistMetrics::get();
  metrics.runs_received.inc();
  metrics.wire_bytes_received.inc(end.run_bytes);
  metrics.groups_remote.inc();
  metrics.remote_group_seconds.observe(timer.seconds());
  shared.log().info("remote group merged",
                    {obs::kv("worker", where), obs::kv("group", task.id),
                     obs::kv("elements", end.elements),
                     obs::kv("bytes", end.run_bytes),
                     obs::kv("seconds", timer.seconds())});
  {
    util::MutexLock lock(shared.merge_mu);
    shared.merger->add_run(std::move(run),
                           static_cast<std::size_t>(task.id));
  }
}

/// One remote worker's executor thread: bring the connection up, pull
/// tasks until the queue drains, requeue on any failure.  A worker only
/// gets `retry.retries` failed tasks before the coordinator gives up on
/// it; its requeued work falls to the survivors or the local thread.
void worker_loop(DistShared& shared, std::size_t widx) {
  const net::Endpoint& ep = shared.config.workers[widx];
  const std::string where = net::to_string(ep);
  net::Socket sock = bring_up_worker(shared, ep, widx);
  if (!sock.valid()) return;
  int strikes = 0;
  GroupTask task;
  while (shared.queue.try_pop(task)) {
    try {
      run_remote_group(shared, sock, task, where);
      shared.queue.complete();
      strikes = 0;
    } catch (const std::exception& e) {
      // Partial runs never reach the merger, so requeueing keeps the
      // output exact; the group just executes somewhere else.
      shared.queue.requeue(task);
      shared.log().warn("remote group failed",
                        {obs::kv("worker", where),
                         obs::kv("group", task.id),
                         obs::kv("error", e.what())});
      sock.close();
      if (++strikes > shared.config.retry.retries) {
        DistMetrics::get().workers_failed.inc();
        shared.log().warn("worker abandoned", {obs::kv("worker", where)});
        return;
      }
      sock = bring_up_worker(shared, ep, widx);
      if (!sock.valid()) return;
    }
  }
}

}  // namespace

SearchOutcome run_distributed(const Session& session,
                              const seqio::SequenceBank& bank2,
                              HitSink& sink, const SearchLimits& limits,
                              const DistConfig& config) {
  // kGroupLocal streams each group in plan order as it finishes; with
  // the coordinator's extra slices that order would differ from the
  // caller's plan, so only the canonical kGlobal ordering distributes.
  if (config.workers.empty() || limits.ordering != HitOrdering::kGlobal) {
    return session.search(bank2, sink, limits);
  }

  util::WallTimer total;
  DistShared shared;
  shared.config = config;
  shared.trace = limits.trace;

  // Slice bank2 exactly as Session::search would, with one extra lower
  // bound: enough slices that every executor has groups to pull.
  // Slicing is output-invariant, so this changes balance, not bytes.
  SearchLimits sliced = limits;
  sliced.min_chunks = std::max(
      limits.min_chunks, config.dist_slices > 0
                             ? config.dist_slices
                             : 2 * (config.workers.size() + 1));
  core::exec::ExecRequest plan = session.plan(bank2, sliced);
  // A local group is traced by its enclosing "local group" span only.
  plan.trace = nullptr;
  const std::vector<core::exec::SliceRange> slices =
      plan.slices.empty()
          ? std::vector<core::exec::SliceRange>{{0, bank2.size()}}
          : plan.slices;

  // Group list in compile_plan order (slice-major, plus before minus):
  // a task's position IS the merge tie-break key.
  const bool plus = plan.options.strand != seqio::Strand::kMinus;
  const bool minus = plan.options.strand != seqio::Strand::kPlus;
  std::vector<GroupTask> groups;
  for (const core::exec::SliceRange& slice : slices) {
    for (const bool is_minus : {false, true}) {
      if (is_minus ? !minus : !plus) continue;
      GroupTask task;
      task.id = groups.size();
      task.minus = is_minus;
      task.slice_from = slice.from;
      task.slice_to = slice.to;
      groups.push_back(task);
    }
  }
  if (groups.size() <= 1) {
    // Nothing to distribute; the plain path is byte-identical anyway.
    return session.search(bank2, sink, limits);
  }

  // One WJOB payload, shared by every worker connection.
  {
    net::PayloadWriter job;
    if (!config.index_path.empty()) {
      job.put_u8(static_cast<std::uint8_t>(RefKind::kIndexPath));
      job.put_string(config.index_path);
    } else {
      std::ostringstream ref;
      seqio::save_bank(ref, session.reference());
      job.put_u8(static_cast<std::uint8_t>(RefKind::kInlineBank));
      job.put_string(ref.str());
    }
    std::ostringstream b2;
    seqio::save_bank(b2, bank2);
    job.put_string(b2.str());
    write_options(job, plan.options);
    shared.job_payload = job.take();
  }

  core::exec::RunMergeConfig mcfg;
  mcfg.budget_bytes = plan.options.delivery_budget_bytes;
  mcfg.tmp_dir = plan.options.tmp_dir;
  core::exec::RunMerger merger(std::move(mcfg), groups.size());
  shared.merger = &merger;
  shared.queue.init({groups.begin(), groups.end()});

  shared.log().info(
      "distributed search",
      {obs::kv("workers", shared.config.workers.size()),
       obs::kv("groups", groups.size()), obs::kv("slices", slices.size()),
       obs::kv("job_bytes", shared.job_payload.size())});

  std::vector<std::thread> threads;
  threads.reserve(shared.config.workers.size());
  for (std::size_t w = 0; w < shared.config.workers.size(); ++w) {
    threads.emplace_back(worker_loop, std::ref(shared), w);
  }

  // The calling thread is the executor of last resort: it runs whatever
  // the remote workers have not taken — all of it, if every worker is
  // down — through the in-process engine.
  core::PipelineStats local_stats;
  GroupTask task;
  while (shared.queue.wait_pop(task)) {
    try {
      obs::Span span(shared.trace,
                     "local group " + std::to_string(task.id), "local");
      core::exec::ExecResult result = core::exec::execute_group(
          plan,
          {static_cast<std::size_t>(task.slice_from),
           static_cast<std::size_t>(task.slice_to)},
          task.minus);
      local_stats.index_seconds += result.stats.index_seconds;
      local_stats.hsp_seconds += result.stats.hsp_seconds;
      local_stats.gapped_seconds += result.stats.gapped_seconds;
      local_stats.hit_pairs += result.stats.hit_pairs;
      local_stats.order_aborts += result.stats.order_aborts;
      local_stats.hsps += result.stats.hsps;
      local_stats.masked_bases += result.stats.masked_bases;
      local_stats.simd_kernel = result.stats.simd_kernel;
      DistMetrics::get().groups_local.inc();
      {
        util::MutexLock lock(shared.merge_mu);
        merger.add_run(std::move(result.alignments),
                       static_cast<std::size_t>(task.id));
      }
      shared.queue.complete();
    } catch (const std::exception& e) {
      // A local failure is a real pipeline failure (the same group
      // would fail in the single-process path too); stop everything.
      shared.queue.fail(e.what());
      break;
    }
  }
  for (std::thread& t : threads) t.join();
  {
    util::MutexLock lock(shared.queue.mu);
    if (shared.queue.failed) {
      throw std::runtime_error("distributed search failed: " +
                               shared.queue.error);
    }
  }

  // Canonical-order delivery: identical bytes to the single-process
  // kGlobal merge, because runs carry plan-order tie-break keys.
  HitBatch batch;
  batch.bank1 = &session.reference();
  batch.bank2 = &bank2;
  const std::size_t emitted = merger.merge(sink, batch);

  // Stage seconds/counters cover the locally executed share only (the
  // wire does not carry worker stats in protocol v1); totals, spill
  // accounting, and the alignment count are exact.
  core::PipelineStats st = local_stats;
  const core::exec::MergeStats& ms = merger.stats();
  st.alignments = emitted;
  st.spilled_runs = ms.spilled_runs;
  st.spill_bytes = ms.spill_bytes;
  st.peak_delivery_bytes = ms.peak_delivery_bytes;
  st.total_seconds = total.seconds();
  sink.on_stats(st);

  SearchOutcome outcome;
  outcome.stats = st;
  outcome.groups = groups.size();
  outcome.slices = slices.size();
  return outcome;
}

}  // namespace scoris::dist
