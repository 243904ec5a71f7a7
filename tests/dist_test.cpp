// Coverage for distributed execution (src/dist/): worker-protocol
// payload round-trips, WRUN framing over real sockets feeding
// SpillRunReader exactly like an on-disk spill file, end-to-end
// coordinator + worker byte-identity against Session::search, and the
// fault matrix — dead endpoints, future-version and lying workers,
// coordinator death mid-stream — all of which must degrade to the
// identical single-process output, never to wrong output.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <cstdint>
#include <chrono>
#include <filesystem>
#include <future>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/exec/run_merge.hpp"
#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/worker.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "seqio/fasta.hpp"
#include "seqio/serialize.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "store/index_store.hpp"

namespace scoris {
namespace {

using core::exec::SpillRunReader;
using core::exec::write_spill_run;

class ScratchDir {
 public:
  ScratchDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "scoris-dist-XXXXXX")
            .string();
    if (::mkdtemp(templ.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    }
    path_ = templ;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::size_t entries() const {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator(path_)) {
      ++n;
    }
    return n;
  }

 private:
  std::string path_;
};

/// A connected AF_UNIX stream pair (real kernel sockets, no listener).
struct SocketPair {
  net::Socket a;
  net::Socket b;
  SocketPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = net::Socket(fds[0]);
    b = net::Socket(fds[1]);
  }
};

/// Read-only streambuf over a string that cannot seek — tellg() on a
/// stream over it returns -1, the same shape RunFrameReader presents.
/// SpillRunReader must consume such a stream strictly sequentially.
class NonSeekableBuf : public std::streambuf {
 public:
  explicit NonSeekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    char* base = bytes_.data();
    setg(base, base, base + bytes_.size());
  }
  // No seekoff/seekpos overrides: the base class fails all seeks.

 private:
  std::string bytes_;
};

/// A synthetic step4-sorted run (ascending e-value).
std::vector<align::GappedAlignment> synthetic_run(std::size_t n) {
  std::vector<align::GappedAlignment> run(n);
  for (std::size_t i = 0; i < n; ++i) {
    run[i].evalue = 1.0 + static_cast<double>(i);
    run[i].s1 = static_cast<seqio::Pos>(i);
    run[i].e1 = static_cast<seqio::Pos>(i + 10);
  }
  return run;
}

// --- protocol payloads -------------------------------------------------------

TEST(DistProtocol, OptionsBlobRoundTripsOutputAffectingFields) {
  core::Options options;
  options.w = 9;
  options.asymmetric = false;
  options.scoring.match = 2;
  options.scoring.mismatch = -5;
  options.scoring.gap_open = -7;
  options.scoring.gap_extend = -3;
  options.scoring.xdrop_ungapped = 18;
  options.scoring.xdrop_gapped = 22;
  options.min_hsp_score = 31;
  options.max_evalue = 1e-7;
  options.dust = false;
  options.dust_params.window = 48;
  options.dust_params.level = 19;
  options.max_gap_extent = 1234;
  options.enforce_order = false;
  options.composition_stats = true;
  // Execution-shape fields must NOT survive the wire: workers pick their
  // own.
  options.threads = 7;

  net::PayloadWriter out;
  dist::write_options(out, options);
  const std::vector<std::uint8_t> blob = out.take();

  net::PayloadReader in(blob, "test options");
  const core::Options back = dist::read_options(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(back.w, options.w);
  EXPECT_EQ(back.asymmetric, options.asymmetric);
  EXPECT_EQ(back.scoring.match, options.scoring.match);
  EXPECT_EQ(back.scoring.mismatch, options.scoring.mismatch);
  EXPECT_EQ(back.scoring.gap_open, options.scoring.gap_open);
  EXPECT_EQ(back.scoring.gap_extend, options.scoring.gap_extend);
  EXPECT_EQ(back.scoring.xdrop_ungapped, options.scoring.xdrop_ungapped);
  EXPECT_EQ(back.scoring.xdrop_gapped, options.scoring.xdrop_gapped);
  EXPECT_EQ(back.min_hsp_score, options.min_hsp_score);
  EXPECT_DOUBLE_EQ(back.max_evalue, options.max_evalue);
  EXPECT_EQ(back.dust, options.dust);
  EXPECT_EQ(back.dust_params.window, options.dust_params.window);
  EXPECT_EQ(back.dust_params.level, options.dust_params.level);
  EXPECT_EQ(back.max_gap_extent, options.max_gap_extent);
  EXPECT_EQ(back.enforce_order, options.enforce_order);
  EXPECT_EQ(back.composition_stats, options.composition_stats);
  EXPECT_EQ(back.threads, core::Options{}.threads)
      << "threads must not ride in the blob";
}

TEST(DistProtocol, OptionsBlobRejectsFutureVersion) {
  net::PayloadWriter out;
  out.put_u32(99);  // a version this build does not speak
  const std::vector<std::uint8_t> blob = out.take();
  net::PayloadReader in(blob, "test options");
  EXPECT_THROW((void)dist::read_options(in), net::NetError);
}

TEST(DistProtocol, GroupAndGroupEndRoundTrip) {
  dist::GroupTask task;
  task.id = 42;
  task.minus = true;
  task.slice_from = 7;
  task.slice_to = 19;
  net::PayloadWriter out;
  dist::write_group(out, task);
  const auto blob = out.take();
  net::PayloadReader in(blob, "test group");
  const dist::GroupTask back = dist::read_group(in);
  EXPECT_EQ(back.id, task.id);
  EXPECT_EQ(back.minus, task.minus);
  EXPECT_EQ(back.slice_from, task.slice_from);
  EXPECT_EQ(back.slice_to, task.slice_to);

  dist::GroupEnd end;
  end.id = 42;
  end.elements = 1000;
  end.run_bytes = 123456;
  net::PayloadWriter out2;
  dist::write_group_end(out2, end);
  const auto blob2 = out2.take();
  net::PayloadReader in2(blob2, "test group end");
  const dist::GroupEnd back2 = dist::read_group_end(in2);
  EXPECT_EQ(back2.id, end.id);
  EXPECT_EQ(back2.elements, end.elements);
  EXPECT_EQ(back2.run_bytes, end.run_bytes);
}

// --- spill-run bytes over the wire -------------------------------------------

TEST(DistStream, SpillRunSurvivesWrunFramingEndToEnd) {
  const auto run = synthetic_run(57);
  SocketPair pair;

  // Worker side: stream the run in deliberately tiny WRUN chunks so the
  // reader must cross many frame boundaries, then the WEND trailer.
  std::thread worker([&] {
    dist::RunFrameWriter frames(pair.a, /*chunk_bytes=*/64);
    std::ostream os(&frames);
    os.exceptions(std::ios::badbit);
    const std::uint64_t bytes = write_spill_run(os, run, /*block_elems=*/8);
    frames.flush();
    dist::GroupEnd end;
    end.id = 3;
    end.elements = run.size();
    end.run_bytes = frames.bytes_sent();
    EXPECT_EQ(end.run_bytes, bytes);
    net::PayloadWriter payload;
    dist::write_group_end(payload, end);
    const auto blob = payload.take();
    net::write_frame(pair.a, dist::kGroupEndTag, blob);
  });

  // Coordinator side: the socket stream is non-seekable and validates
  // like a spill file.
  dist::RunFrameReader frames(pair.b);
  std::istream is(&frames);
  is.exceptions(std::ios::badbit);
  EXPECT_EQ(is.tellg(), std::streampos(-1)) << "stream must be non-seekable";
  SpillRunReader reader(is, "wire run");
  EXPECT_EQ(reader.total(), run.size());
  std::vector<align::GappedAlignment> back;
  for (auto block = reader.next_block(is); !block.empty();
       block = reader.next_block(is)) {
    back.insert(back.end(), block.begin(), block.end());
  }
  // Pull the WEND trailer through the streambuf.
  (void)is.peek();
  worker.join();

  ASSERT_TRUE(frames.done());
  EXPECT_EQ(frames.end().id, 3u);
  EXPECT_EQ(frames.end().elements, run.size());
  EXPECT_EQ(frames.bytes_received(), frames.end().run_bytes);
  ASSERT_EQ(back.size(), run.size());
  for (std::size_t i = 0; i < run.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].evalue, run[i].evalue);
    EXPECT_EQ(back[i].s1, run[i].s1);
  }
}

TEST(DistStream, WerrMidStreamThrowsWithWorkerMessage) {
  SocketPair pair;
  std::thread worker([&] {
    net::write_frame(pair.a, dist::kRunChunkTag, std::string_view("junk"));
    net::PayloadWriter payload;
    payload.put_string("engine exploded");
    const auto blob = payload.take();
    net::write_frame(pair.a, dist::kWorkerErrorTag, blob);
  });
  dist::RunFrameReader frames(pair.b);
  std::istream is(&frames);
  is.exceptions(std::ios::badbit);
  char buf[16];
  is.read(buf, 4);  // the WRUN payload
  try {
    is.read(buf, 1);  // forces the WERR underflow
    FAIL() << "expected NetError";
  } catch (const net::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("engine exploded"),
              std::string::npos);
  }
  worker.join();
}

TEST(DistStream, ConnectionClosedBeforeWendThrows) {
  SocketPair pair;
  net::write_frame(pair.a, dist::kRunChunkTag, std::string_view("part"));
  pair.a.close();  // peer dies before WEND
  dist::RunFrameReader frames(pair.b);
  std::istream is(&frames);
  is.exceptions(std::ios::badbit);
  char buf[8];
  is.read(buf, 4);
  EXPECT_THROW(is.read(buf, 1), net::NetError);
}

TEST(DistStream, SpillReaderOnNonSeekableStreamValidatesLikeAFile) {
  const auto run = synthetic_run(23);
  std::ostringstream os;
  write_spill_run(os, run, 5);
  const std::string good = os.str();

  {
    NonSeekableBuf buf(good);
    std::istream is(&buf);
    ASSERT_EQ(is.tellg(), std::streampos(-1));
    SpillRunReader reader(is, "non-seekable run");
    std::size_t total = 0;
    for (auto block = reader.next_block(is); !block.empty();
         block = reader.next_block(is)) {
      total += block.size();
    }
    EXPECT_EQ(total, run.size());
  }

  // Corruption and truncation must still throw — CRC and count checks
  // cannot depend on seeking.
  {
    std::string corrupt = good;
    corrupt[good.size() / 2] ^= 0x01;
    NonSeekableBuf buf(corrupt);
    std::istream is(&buf);
    EXPECT_THROW(
        {
          SpillRunReader reader(is, "corrupt run");
          while (!reader.next_block(is).empty()) {
          }
        },
        std::runtime_error);
  }
  {
    NonSeekableBuf buf(good.substr(0, good.size() - 40));
    std::istream is(&buf);
    EXPECT_THROW(
        {
          SpillRunReader reader(is, "truncated run");
          while (!reader.next_block(is).empty()) {
          }
        },
        std::runtime_error);
  }
}

// --- end-to-end coordinator + worker -----------------------------------------

/// One running dist::Worker on a unix socket plus the session/bank pair
/// every distributed result must match byte for byte.
class DistFixture {
 public:
  explicit DistFixture(std::uint64_t seed = 61, int worker_threads = 2) {
    simulate::Rng rng(seed);
    const auto hp = simulate::make_homologous_pair(rng, 400, 12, 10, 0.05);
    Options options;
    options.strand = seqio::Strand::kBoth;
    session_.emplace(seqio::SequenceBank(hp.bank1), options);
    bank2_ = hp.bank2;

    dist::WorkerConfig config;
    config.endpoint.kind = net::Endpoint::Kind::kUnix;
    config.endpoint.path = (std::filesystem::path(scratch_.path()) /
                            ("worker" + std::to_string(next_sock_++) +
                             ".sock"))
                               .string();
    config.threads = worker_threads;
    workers_.push_back(std::make_unique<dist::Worker>(config));
    workers_.back()->bind();
    threads_.emplace_back(
        [worker = workers_.back().get()] { worker->serve(); });
  }

  ~DistFixture() { stop(); }

  void stop() {
    for (auto& w : workers_) w->request_stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Add one more live worker and return its endpoint.
  net::Endpoint add_worker(int threads = 1) {
    dist::WorkerConfig config;
    config.endpoint.kind = net::Endpoint::Kind::kUnix;
    config.endpoint.path = (std::filesystem::path(scratch_.path()) /
                            ("worker" + std::to_string(next_sock_++) +
                             ".sock"))
                               .string();
    config.threads = threads;
    workers_.push_back(std::make_unique<dist::Worker>(config));
    workers_.back()->bind();
    threads_.emplace_back(
        [worker = workers_.back().get()] { worker->serve(); });
    return workers_.back()->endpoint();
  }

  [[nodiscard]] std::string direct_m8(const SearchLimits& limits = {}) {
    std::ostringstream os;
    M8Writer writer(os);
    (void)session_->search(bank2_, writer, limits);
    return os.str();
  }

  /// Distributed m8 under `config` (workers defaulted to every live
  /// worker when empty); also returns the outcome through `outcome`.
  [[nodiscard]] std::string dist_m8(dist::DistConfig config = {},
                                    const SearchLimits& limits = {},
                                    SearchOutcome* outcome = nullptr) {
    if (config.workers.empty()) {
      for (const auto& w : workers_) {
        config.workers.push_back(w->endpoint());
      }
    }
    std::ostringstream os;
    M8Writer writer(os);
    const SearchOutcome got =
        dist::run_distributed(*session_, bank2_, writer, limits, config);
    if (outcome != nullptr) *outcome = got;
    return os.str();
  }

  [[nodiscard]] Session& session() { return *session_; }
  [[nodiscard]] const seqio::SequenceBank& bank2() const { return bank2_; }
  [[nodiscard]] dist::Worker& worker(std::size_t i = 0) {
    return *workers_[i];
  }
  [[nodiscard]] const ScratchDir& scratch() const { return scratch_; }

 private:
  ScratchDir scratch_;
  std::optional<Session> session_;
  seqio::SequenceBank bank2_;
  std::vector<std::unique_ptr<dist::Worker>> workers_;
  std::vector<std::thread> threads_;
  int next_sock_ = 0;
};

TEST(Distributed, SingleWorkerMatchesDirectSearchByteForByte) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();
  ASSERT_FALSE(reference.empty());

  SearchOutcome outcome;
  EXPECT_EQ(fixture.dist_m8({}, {}, &outcome), reference);
  EXPECT_GT(outcome.groups, 1u) << "plan must actually distribute";

  fixture.stop();
  const dist::WorkerCounters counters = fixture.worker().counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.jobs, 1u);
  EXPECT_GT(counters.groups, 0u);
  EXPECT_EQ(counters.failed, 0u);
}

TEST(Distributed, TwoWorkersAndExtraSlicesStayByteIdentical) {
  DistFixture fixture;
  (void)fixture.add_worker();
  const std::string reference = fixture.direct_m8();
  ASSERT_FALSE(reference.empty());

  dist::DistConfig config;
  config.dist_slices = 5;  // a slicing hint, rounded by the planner
  SearchOutcome outcome;
  EXPECT_EQ(fixture.dist_m8(config, {}, &outcome), reference);
  EXPECT_GE(outcome.slices, 4u);
  EXPECT_EQ(outcome.groups, outcome.slices * 2);  // both strands

  fixture.stop();
  const std::uint64_t total_remote = fixture.worker(0).counters().groups +
                                     fixture.worker(1).counters().groups;
  EXPECT_GT(total_remote, 0u);
}

TEST(Distributed, RespectsDeliveryBudgetSpillPath) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();
  ASSERT_FALSE(reference.empty());

  // A tiny delivery budget forces the coordinator's merger to spill
  // remote runs to temp files; output must not change.
  SearchLimits limits;
  limits.delivery_budget_bytes = 2048;
  limits.tmp_dir = fixture.scratch().path();
  ASSERT_EQ(fixture.direct_m8(limits), reference)
      << "delivery budget must be output-invariant";
  EXPECT_EQ(fixture.dist_m8({}, limits), reference);
}

TEST(Distributed, DeadWorkerFallsBackToLocalExecution) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();
  ASSERT_FALSE(reference.empty());

  dist::DistConfig config;
  net::Endpoint dead;
  dead.kind = net::Endpoint::Kind::kUnix;
  dead.path = (std::filesystem::path(fixture.scratch().path()) /
               "nobody-home.sock")
                  .string();
  config.workers.push_back(dead);
  config.retry.retries = 0;  // fail fast; the local executor drains
  EXPECT_EQ(fixture.dist_m8(config), reference);
}

TEST(Distributed, FutureVersionWorkerIsRejectedNotTrusted) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();

  // A fake "worker" announcing a protocol version from the future: the
  // coordinator must not guess at its framing — skip it, run locally.
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUnix;
  ep.path = (std::filesystem::path(fixture.scratch().path()) /
             "future.sock")
                .string();
  net::Socket listener = net::listen_endpoint(ep, 4);
  std::atomic<bool> stop{false};
  std::thread fake([&] {
    while (!stop.load()) {
      if ((net::wait_readable(listener.fd(), -1, 100) & 1) == 0) continue;
      net::Socket conn = net::accept_connection(listener);
      if (!conn.valid()) continue;
      net::PayloadWriter hello;
      hello.put_u32(dist::kWorkerProtocolVersion + 1);
      const auto blob = hello.take();
      try {
        net::write_frame(conn, dist::kWorkerHelloTag, blob);
      } catch (const net::NetError&) {
      }
      // Say nothing else; the coordinator should hang up on us.
    }
  });

  dist::DistConfig config;
  config.workers.push_back(ep);
  config.retry.retries = 0;
  EXPECT_EQ(fixture.dist_m8(config), reference);
  stop.store(true);
  fake.join();
}

TEST(Distributed, LyingWorkerRunsAreRequeuedNotMerged) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();
  ASSERT_FALSE(reference.empty());

  // A malicious worker that acks the job, then answers every group with
  // garbage WRUN bytes and a WEND: the CRC validation must reject the
  // run, requeue the group, and the output must still be exact.
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUnix;
  ep.path =
      (std::filesystem::path(fixture.scratch().path()) / "liar.sock")
          .string();
  net::Socket listener = net::listen_endpoint(ep, 4);
  std::atomic<bool> stop{false};
  std::thread fake([&] {
    while (!stop.load()) {
      if ((net::wait_readable(listener.fd(), -1, 100) & 1) == 0) continue;
      net::Socket conn = net::accept_connection(listener);
      if (!conn.valid()) continue;
      try {
        net::PayloadWriter hello;
        hello.put_u32(dist::kWorkerProtocolVersion);
        const auto hello_blob = hello.take();
        net::write_frame(conn, dist::kWorkerHelloTag, hello_blob);
        net::Frame frame;
        if (!net::read_frame(conn, frame)) continue;  // expect WJOB
        net::write_frame(conn, dist::kJobAckTag, std::string_view{});
        while (net::read_frame(conn, frame)) {  // WGRP requests
          net::PayloadReader reader(frame.payload, "fake group");
          const dist::GroupTask task = dist::read_group(reader);
          net::write_frame(conn, dist::kRunChunkTag,
                           std::string_view("this is not a spill run"));
          dist::GroupEnd end;
          end.id = task.id;
          end.elements = 5;
          end.run_bytes = 23;
          net::PayloadWriter payload;
          dist::write_group_end(payload, end);
          const auto end_blob = payload.take();
          net::write_frame(conn, dist::kGroupEndTag, end_blob);
        }
      } catch (const net::NetError&) {
        // The coordinator hanging up on us mid-lie is expected.
      }
    }
  });

  dist::DistConfig config;
  config.workers.push_back(ep);
  config.retry.retries = 1;  // give it a second chance to lie again
  EXPECT_EQ(fixture.dist_m8(config), reference);
  stop.store(true);
  fake.join();
}

TEST(Distributed, CoordinatorDeathMidStreamLeavesWorkerServing) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();

  // Hand-roll half a job, then vanish mid-group exactly like a killed
  // coordinator: connect, setup, request a group, read one frame, close.
  {
    net::Socket conn = net::connect_endpoint(fixture.worker().endpoint());
    net::Frame frame;
    ASSERT_TRUE(net::read_frame(conn, frame));
    ASSERT_EQ(frame.tag, dist::kWorkerHelloTag);

    std::ostringstream bank1_bytes;
    seqio::save_bank(bank1_bytes, fixture.session().reference());
    std::ostringstream bank2_bytes;
    seqio::save_bank(bank2_bytes, fixture.bank2());
    net::PayloadWriter job;
    job.put_u8(static_cast<std::uint8_t>(dist::RefKind::kInlineBank));
    job.put_string(bank1_bytes.str());
    job.put_string(bank2_bytes.str());
    dist::write_options(job, fixture.session().options());
    const auto job_blob = job.take();
    net::write_frame(conn, dist::kJobTag, job_blob);
    ASSERT_TRUE(net::read_frame(conn, frame));
    ASSERT_EQ(frame.tag, dist::kJobAckTag);

    dist::GroupTask task;
    task.id = 0;
    task.minus = false;
    task.slice_from = 0;
    task.slice_to = fixture.bank2().size();
    net::PayloadWriter group;
    dist::write_group(group, task);
    const auto group_blob = group.take();
    net::write_frame(conn, dist::kGroupTag, group_blob);
    ASSERT_TRUE(net::read_frame(conn, frame));  // first WRUN (or WEND)
    // Die abruptly, run bytes still in flight.
  }

  // The worker must shrug that off and serve a real job afterwards.
  EXPECT_EQ(fixture.dist_m8(), reference);

  fixture.stop();
  // No temp-file residue: the scratch dir holds exactly the worker
  // socket (workers stream from memory, never via disk).
  EXPECT_EQ(fixture.scratch().entries(), 1u) << "worker leaked temp files";
}

TEST(Distributed, WorkerStopWithStalledMidHeaderPeerReturns) {
  DistFixture fixture;
  // A peer that sends two bytes of the WJOB tag and stalls leaves its
  // handler mid-frame, not idle; the drain must still finish.
  std::optional<net::Socket> stalled(
      net::connect_endpoint(fixture.worker().endpoint()));
  net::Frame hello;
  ASSERT_TRUE(net::read_frame(*stalled, hello));
  ASSERT_EQ(hello.tag, dist::kWorkerHelloTag);
  stalled->send_all("WJ", 2);
  // Give the handler time to consume the two bytes before the stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::future<void> stopped =
      std::async(std::launch::async, [&fixture] { fixture.stop(); });
  const bool returned = stopped.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  // A wedged worker sees EOF mid-frame here and lets go, so a failure
  // ends the test instead of hanging it.
  stalled.reset();
  stopped.get();
  EXPECT_TRUE(returned) << "serve() stayed blocked on a stalled peer";
  EXPECT_EQ(fixture.worker().counters().jobs, 0u);
}

TEST(Distributed, ShipsReferenceAsIndexPathWhenConfigured) {
  DistFixture fixture;
  const std::string reference = fixture.direct_m8();

  // Write the reference as a .scix artifact and ship only the path: the
  // worker loads it from the (shared) filesystem.
  const std::string index_path =
      (std::filesystem::path(fixture.scratch().path()) / "ref.scix")
          .string();
  store::IndexKey key;
  key.w = fixture.session().options().w;
  key.dust = fixture.session().options().dust;
  store::write_index_file(index_path, fixture.session().reference(),
                          {&key, 1});

  dist::DistConfig config;
  config.index_path = index_path;
  EXPECT_EQ(fixture.dist_m8(config), reference);

  fixture.stop();
  EXPECT_EQ(fixture.worker().counters().jobs, 1u);
  EXPECT_EQ(fixture.worker().counters().failed, 0u);
}

TEST(Distributed, StrandLimitOverrideDistributes) {
  DistFixture fixture;
  SearchLimits minus;
  minus.strand = seqio::Strand::kMinus;
  const std::string reference = fixture.direct_m8(minus);
  const std::string both = fixture.direct_m8();
  ASSERT_NE(reference, both) << "strand byte must be observable";
  EXPECT_EQ(fixture.dist_m8({}, minus), reference);
}

}  // namespace
}  // namespace scoris
