// Integration coverage for scorisd (daemon::Server + net::QueryClient):
// byte-identity of networked results against a direct Session::search,
// concurrent clients over one shared session, admission control (BUSY),
// per-query error containment (bad FASTA, oversized queries, mid-stream
// client death), graceful drain on request_stop, and the no-spill-leak
// guarantee for a long-lived server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/sinks.hpp"
#include "daemon/server.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "seqio/fasta.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"

namespace scoris {
namespace {

class ScratchDir {
 public:
  ScratchDir() {
    std::string templ =
        (std::filesystem::temp_directory_path() / "scoris-dt-XXXXXX")
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

/// One running daemon over a fresh session and unix socket, plus the
/// query FASTA and its direct-search reference output.
class DaemonFixture {
 public:
  explicit DaemonFixture(daemon::ServerConfig config = {},
                         std::uint64_t seed = 53) {
    simulate::Rng rng(seed);
    const auto hp = simulate::make_homologous_pair(rng, 400, 10, 8, 0.05);
    Options options;
    options.strand = seqio::Strand::kBoth;
    options.threads = 2;
    session_.emplace(seqio::SequenceBank(hp.bank1), options);

    // The exact bytes a client will send, and the bank the server will
    // parse out of them — the reference search uses the same parse so
    // the comparison is a true end-to-end identity.
    std::ostringstream text;
    seqio::write_fasta(text, hp.bank2);
    fasta_ = text.str();

    config.endpoint.kind = net::Endpoint::Kind::kUnix;
    config.endpoint.path = (std::filesystem::path(scratch_.path()) /
                            "scorisd.sock")
                               .string();
    if (config.base_limits.tmp_dir.empty()) {
      config.base_limits.tmp_dir = scratch_.path();
    }
    server_.emplace(*session_, config);
    server_->bind();
    serve_thread_ = std::thread([this] { server_->serve(); });
  }

  ~DaemonFixture() {
    if (server_.has_value()) stop();
  }

  void stop() {
    server_->request_stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  /// Direct (in-process) m8 text for `fasta` under `limits` — what every
  /// networked result must match byte for byte.
  [[nodiscard]] std::string direct_m8(const SearchLimits& limits = {}) {
    const seqio::SequenceBank bank2 =
        seqio::read_fasta_string(fasta_, "query");
    std::ostringstream os;
    M8Writer writer(os);
    (void)session_->search(bank2, writer, limits);
    return os.str();
  }

  /// Run one full query over a fresh connection; returns the received
  /// m8 text and fails the test on a server-reported error.
  [[nodiscard]] std::string query_once(
      net::QueryStrand strand = net::QueryStrand::kDefault) {
    net::QueryClient client = net::QueryClient::connect(server_->endpoint());
    std::string rows;
    const net::QueryResult result = client.query(
        fasta_, strand, [&rows](std::string_view chunk) { rows += chunk; });
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.row_bytes, rows.size());
    return rows;
  }

  [[nodiscard]] daemon::Server& server() { return *server_; }
  [[nodiscard]] const std::string& fasta() const { return fasta_; }
  [[nodiscard]] const ScratchDir& scratch() const { return scratch_; }

 private:
  ScratchDir scratch_;
  std::optional<Session> session_;
  std::optional<daemon::Server> server_;
  std::thread serve_thread_;
  std::string fasta_;
};

TEST(Daemon, SingleQueryMatchesDirectSearchByteForByte) {
  DaemonFixture daemon;
  const std::string reference = daemon.direct_m8();
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(daemon.query_once(), reference);

  daemon.stop();
  const daemon::ServerCounters counters = daemon.server().counters();
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.served, 1u);
  EXPECT_EQ(counters.rejected, 0u);
}

TEST(Daemon, ConcurrentClientsAllReceiveTheCanonicalResult) {
  daemon::ServerConfig config;
  config.max_clients = 8;
  DaemonFixture daemon(config);
  const std::string reference = daemon.direct_m8();
  ASSERT_FALSE(reference.empty());

  constexpr int kClients = 4;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&daemon, &results, c] {
      results[static_cast<std::size_t>(c)] = daemon.query_once();
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(results[static_cast<std::size_t>(c)], reference)
        << "client " << c;
  }

  daemon.stop();
  EXPECT_EQ(daemon.server().counters().served,
            static_cast<std::uint64_t>(kClients));
  // The scratch dir holds the unix socket (removed with the server) and
  // must hold nothing else — no spill residue from any query.
  EXPECT_EQ(daemon.scratch().entries(), 1u) << "spill files leaked";
}

TEST(Daemon, MixedStrandQueriesOnOneConnection) {
  DaemonFixture daemon;
  SearchLimits plus;
  plus.strand = seqio::Strand::kPlus;
  SearchLimits minus;
  minus.strand = seqio::Strand::kMinus;
  const std::string both_ref = daemon.direct_m8();
  const std::string plus_ref = daemon.direct_m8(plus);
  const std::string minus_ref = daemon.direct_m8(minus);
  // The planted homologies are all plus-strand, so the strand byte is
  // observable as minus differing from the other two.
  ASSERT_NE(both_ref, minus_ref);
  ASSERT_FALSE(both_ref.empty());

  // Several queries, different strands, one connection — order matters,
  // interleaving does not exist (the protocol is strictly sequential per
  // connection).
  net::QueryClient client =
      net::QueryClient::connect(daemon.server().endpoint());
  const auto ask = [&](net::QueryStrand strand) {
    std::string rows;
    const net::QueryResult result = client.query(
        daemon.fasta(), strand,
        [&rows](std::string_view chunk) { rows += chunk; });
    EXPECT_TRUE(result.ok) << result.error;
    return rows;
  };
  EXPECT_EQ(ask(net::QueryStrand::kPlus), plus_ref);
  EXPECT_EQ(ask(net::QueryStrand::kBoth), both_ref);
  EXPECT_EQ(ask(net::QueryStrand::kMinus), minus_ref);
  EXPECT_EQ(ask(net::QueryStrand::kDefault), both_ref);
}

TEST(Daemon, AdmissionControlRefusesBeyondMaxClients) {
  daemon::ServerConfig config;
  config.max_clients = 1;
  DaemonFixture daemon(config);

  // The first client's successful connect (HELO received) proves its
  // slot is held; the second must be refused with BUSY, not queued.
  net::QueryClient first =
      net::QueryClient::connect(daemon.server().endpoint());
  EXPECT_THROW((void)net::QueryClient::connect(daemon.server().endpoint()),
               net::ServerBusy);

  // Releasing the slot re-opens admission.
  first.abort();
  for (int attempt = 0;; ++attempt) {
    try {
      net::QueryClient second =
          net::QueryClient::connect(daemon.server().endpoint());
      break;
    } catch (const net::ServerBusy&) {
      // The server may not have reaped the first connection yet.
      ASSERT_LT(attempt, 200) << "slot never released";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  daemon.stop();
  EXPECT_GE(daemon.server().counters().rejected, 1u);
}

TEST(Daemon, BadQueriesGetErrAndTheConnectionSurvives) {
  DaemonFixture daemon;
  const std::string reference = daemon.direct_m8();
  net::QueryClient client =
      net::QueryClient::connect(daemon.server().endpoint());

  // Malformed FASTA: ERR, not a dropped connection.
  const net::QueryResult bad = client.query(
      "this is not fasta", net::QueryStrand::kDefault, nullptr);
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // The same connection then serves a real query.
  std::string rows;
  const net::QueryResult good =
      client.query(daemon.fasta(), net::QueryStrand::kDefault,
                   [&rows](std::string_view chunk) { rows += chunk; });
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(rows, reference);
}

TEST(Daemon, OversizedQueryIsRefusedPerQuery) {
  daemon::ServerConfig config;
  config.max_query_bytes = 64;  // far below any real FASTA bank
  DaemonFixture daemon(config);
  net::QueryClient client =
      net::QueryClient::connect(daemon.server().endpoint());
  EXPECT_EQ(client.max_query_bytes(), 64u);

  const net::QueryResult refused = client.query(
      daemon.fasta(), net::QueryStrand::kDefault, nullptr);
  EXPECT_FALSE(refused.ok);
  EXPECT_NE(refused.error.find("exceeds"), std::string::npos)
      << refused.error;

  const net::QueryResult tiny =
      client.query(">q\nACGTACGTACGT\n", net::QueryStrand::kDefault, nullptr);
  EXPECT_TRUE(tiny.ok) << tiny.error;  // no hits, but a clean DONE
  EXPECT_EQ(tiny.alignments, 0u);
}

TEST(Daemon, MidStreamDisconnectDoesNotDisturbOtherClients) {
  daemon::ServerConfig config;
  config.max_clients = 8;
  // One frame per m8 row, and a spill-forcing delivery budget: the
  // aborted query dies with real temp state on disk to reclaim.
  config.chunk_bytes = 1;
  config.base_limits.delivery_budget_bytes = Options::kMinDeliveryBudget;
  DaemonFixture daemon(config);
  const std::string reference = daemon.direct_m8();
  ASSERT_FALSE(reference.empty());

  std::atomic<bool> aborted{false};
  std::thread dying([&daemon, &aborted] {
    net::QueryClient client =
        net::QueryClient::connect(daemon.server().endpoint());
    try {
      (void)client.query(daemon.fasta(), net::QueryStrand::kDefault,
                         [&client, &aborted](std::string_view) {
                           // Hang up after the first ROWS frame, with the
                           // server mid-delivery.
                           client.abort();
                           aborted.store(true, std::memory_order_release);
                         });
    } catch (const net::NetError&) {
      // Expected: reading from our own closed socket.
    }
  });

  std::vector<std::thread> healthy;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 2; ++c) {
    healthy.emplace_back([&daemon, &reference, &mismatches] {
      for (int round = 0; round < 3; ++round) {
        if (daemon.query_once() != reference) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  dying.join();
  for (auto& t : healthy) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The daemon keeps serving after the disconnect...
  EXPECT_EQ(daemon.query_once(), reference);
  daemon.stop();
  // ...and holds no spill state: only the unix socket (removed with the
  // server) and nothing else may remain in the scratch dir.
  EXPECT_LE(daemon.scratch().entries(), 1u)
      << "aborted networked query leaked spill files";
}

TEST(Daemon, GracefulStopDrainsAndRemovesTheSocket) {
  DaemonFixture daemon;
  const std::string reference = daemon.direct_m8();
  EXPECT_EQ(daemon.query_once(), reference);

  const std::string socket_path = daemon.server().endpoint().path;
  EXPECT_TRUE(std::filesystem::exists(socket_path));
  daemon.stop();
  // serve() returned: no further connections are possible.
  EXPECT_THROW((void)net::QueryClient::connect(daemon.server().endpoint()),
               net::NetError);
}

TEST(Daemon, StopWithIdleConnectedClientStillReturns) {
  DaemonFixture daemon;
  // A connected-but-idle client must not block the drain (its handler
  // parks on poll and sees the wake pipe).
  net::QueryClient idle =
      net::QueryClient::connect(daemon.server().endpoint());
  daemon.stop();  // would hang forever if drain waited on the idle client
  SUCCEED();
}

TEST(Daemon, StopWithStalledMidHeaderClientReturns) {
  DaemonFixture daemon;
  // A peer that sends two bytes of a frame tag and stalls leaves its
  // handler mid-frame, not idle; the drain must still finish.
  std::optional<net::Socket> stalled(
      net::connect_endpoint(daemon.server().endpoint()));
  net::Frame hello;
  ASSERT_TRUE(net::read_frame(*stalled, hello));
  ASSERT_EQ(hello.tag, net::kHelloTag);
  stalled->send_all("QR", 2);
  // Give the handler time to consume the two bytes before the stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::future<void> stopped =
      std::async(std::launch::async, [&daemon] { daemon.stop(); });
  const bool returned = stopped.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  // A wedged server sees EOF mid-frame here and lets go, so a failure
  // ends the test instead of hanging it.
  stalled.reset();
  stopped.get();
  EXPECT_TRUE(returned) << "serve() stayed blocked on a stalled peer";
}

/// First sample value of `name` in a Prometheus text snapshot, or -1.
std::int64_t metric_value(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + ' ', 0) == 0) {
      return std::stoll(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST(Daemon, DoneFrameCarriesServerSeconds) {
  DaemonFixture daemon;
  net::QueryClient client =
      net::QueryClient::connect(daemon.server().endpoint());
  std::string rows;
  const net::QueryResult result = client.query(
      daemon.fasta(), net::QueryStrand::kDefault,
      [&rows](std::string_view chunk) { rows += chunk; });
  ASSERT_TRUE(result.ok) << result.error;
  // A v2 server always reports its wall time; -1 would mean the client
  // fell back to the v1 DONE layout.
  EXPECT_GE(result.server_seconds, 0.0);
  EXPECT_LT(result.server_seconds, 300.0);
}

TEST(Daemon, StatSnapshotReflectsQueriesAndBusyRefusals) {
  daemon::ServerConfig config;
  config.max_clients = 1;
  DaemonFixture daemon(config);

  // The metrics registry is process-global and other tests in this
  // binary also drive daemons, so assert on deltas, not absolutes.
  net::QueryClient probe =
      net::QueryClient::connect(daemon.server().endpoint());
  const std::string before = probe.stats();
  const std::int64_t completed_before =
      metric_value(before, "scorisd_queries_completed_total");
  const std::int64_t busy_before =
      metric_value(before, "scorisd_busy_refusals_total");
  ASSERT_GE(completed_before, 0);
  ASSERT_GE(busy_before, 0);
  // The probe connection holds the only slot: a second connect is BUSY.
  EXPECT_THROW((void)net::QueryClient::connect(daemon.server().endpoint()),
               net::NetError);

  std::string rows;
  const net::QueryResult result = probe.query(
      daemon.fasta(), net::QueryStrand::kDefault,
      [&rows](std::string_view chunk) { rows += chunk; });
  ASSERT_TRUE(result.ok) << result.error;

  const std::string after = probe.stats();
  EXPECT_EQ(metric_value(after, "scorisd_queries_completed_total"),
            completed_before + 1);
  EXPECT_EQ(metric_value(after, "scorisd_busy_refusals_total"),
            busy_before + 1);
  EXPECT_GE(metric_value(after, "scorisd_active_connections"), 1);
  // The histogram observed the query; exposition carries TYPE lines.
  EXPECT_NE(after.find("# TYPE scorisd_query_seconds histogram"),
            std::string::npos);
  EXPECT_GE(metric_value(after, "scorisd_query_seconds_count"), 1);
}

}  // namespace
}  // namespace scoris
