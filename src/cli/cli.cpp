#include "cli/cli.hpp"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include <atomic>
#include <csignal>
#include <sstream>

#include "align/simd/kernel_dispatch.hpp"
#include "api/session.hpp"
#include "api/sinks.hpp"
#include "core/options.hpp"
#include "daemon/server.hpp"
#include "dist/coordinator.hpp"
#include "dist/worker.hpp"
#include "net/client.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "seqio/fasta.hpp"
#include "seqio/sequence_bank.hpp"
#include "seqio/serialize.hpp"
#include "seqio/strand.hpp"
#include "store/index_store.hpp"
#include "util/argparse.hpp"

namespace scoris::cli {

namespace {

constexpr const char* kVersion = "scoris 0.1.0 (SCORIS-N, Lavenier'08 ORIS)";

/// Flags the flat compare driver understands; anything else is a usage
/// error.
const std::vector<std::string>& known_flags() {
  static const std::vector<std::string> kKnown = {
      "bank1",   "bank2",      "out",   "w",       "threads",
      "strand",  "evalue",     "dust",  "no-dust", "asymmetric",
      "s1",      "stats",      "help",  "version", "shards",
      "schedule", "memory-budget-mb", "delivery-budget-kb", "tmp-dir",
      "trace-json", "force-scalar", "kernel",
      "workers", "worker-timeout-ms", "dist-slices",
  };
  return kKnown;
}

const std::vector<std::string>& known_search_flags() {
  static const std::vector<std::string> kKnown = {
      "index",   "bank2",  "out",     "w",
      "threads", "strand", "evalue",  "dust",
      "no-dust", "asymmetric", "s1",  "stats",
      "memory-budget-mb", "help",     "shards",
      "schedule", "delivery-budget-kb", "tmp-dir",
      "trace-json", "force-scalar",
      "workers", "worker-timeout-ms", "dist-slices",
  };
  return kKnown;
}

const std::vector<std::string>& known_index_flags() {
  static const std::vector<std::string> kKnown = {
      "bank", "out", "w", "dust", "no-dust", "stats", "help",
  };
  return kKnown;
}

const std::vector<std::string>& known_serve_flags() {
  static const std::vector<std::string> kKnown = {
      "index",   "listen", "max-clients", "backlog",
      "w",       "threads", "strand",     "evalue",
      "dust",    "no-dust", "asymmetric", "s1",
      "shards",  "schedule", "memory-budget-mb",
      "delivery-budget-kb", "tmp-dir",    "help",
      "log-level", "log-file",
  };
  return kKnown;
}

const std::vector<std::string>& known_query_flags() {
  static const std::vector<std::string> kKnown = {
      "connect", "bank2", "out", "strand", "stats", "help",
      "retry", "retry-backoff-ms",
  };
  return kKnown;
}

const std::vector<std::string>& known_worker_flags() {
  static const std::vector<std::string> kKnown = {
      "listen", "threads", "backlog", "max-jobs",
      "log-level", "log-file", "help",
  };
  return kKnown;
}

const std::vector<std::string>& known_stats_flags() {
  static const std::vector<std::string> kKnown = {
      "connect", "help",
  };
  return kKnown;
}

bool parse_worker_list(const std::string& spec,
                       std::vector<net::Endpoint>& workers,
                       std::ostream& err);

/// Load a bank from FASTA, or from the binary .scob format when the path
/// ends in ".scob".
seqio::SequenceBank load_bank(const std::string& path) {
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".scob") == 0) {
    return seqio::load_bank_file(path);
  }
  return seqio::read_fasta_file(path);
}

/// Strict numeric flag parsing: Args::get_int/get_double silently fall back
/// on unparsable text, which would let a typo like `--evalue 1e-3x` run with
/// the default. Reject instead, and range-check before narrowing so huge
/// values cannot wrap into the valid range.  The range check goes through
/// core::check_range — the same helper Options::validate() uses — so the
/// CLI and the library reject with identical diagnostics.
bool parse_int_flag(const util::Args& args, const std::string& name,
                    std::int64_t lo, std::int64_t hi, int& value,
                    std::ostream& err) {
  if (!args.has(name)) return true;
  const std::optional<std::int64_t> v = args.get_int_strict(name);
  if (!v) {
    err << "error: --" << name << " expects an integer, got '"
        << args.get(name) << "'\n";
    return false;
  }
  if (const auto issue = core::check_range(name, *v, lo, hi)) {
    err << "error: " << issue->message << '\n';
    return false;
  }
  value = static_cast<int>(*v);
  return true;
}

bool parse_size_flag(const util::Args& args, const std::string& name,
                     int lo, int hi, std::size_t& value, std::ostream& err) {
  if (!args.has(name)) return true;
  int v = 0;
  if (!parse_int_flag(args, name, lo, hi, v, err)) return false;
  value = static_cast<std::size_t>(v);
  return true;
}

bool parse_double_flag(const util::Args& args, const std::string& name,
                       double& value, std::ostream& err) {
  if (!args.has(name)) return true;
  const std::optional<double> v = args.get_double_strict(name);
  if (!v) {
    err << "error: --" << name << " expects a number, got '" << args.get(name)
        << "'\n";
    return false;
  }
  value = *v;
  return true;
}

/// Args greedily binds `--flag token` even for boolean flags, so
/// `scoris --stats a.fa b.fa` would silently swallow `a.fa`. Catch any
/// value that is not a boolean spelling and say what happened.
bool check_boolean_flag(const util::Args& args, const std::string& name,
                        std::ostream& err) {
  if (!args.has(name)) return true;
  const std::string raw = args.get(name);
  if (raw == "true" || raw == "false" || raw == "1" || raw == "0" ||
      raw == "yes" || raw == "no") {
    return true;
  }
  err << "error: --" << name << " does not take a value (got '" << raw
      << "'); place boolean flags after the banks or write --" << name
      << "=true\n";
  return false;
}

bool reject_unknown_flags(const util::Args& args,
                          const std::vector<std::string>& known,
                          std::ostream& err) {
  for (const std::string& name : args.flag_names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      err << "error: unknown flag --" << name << '\n';
      return false;
    }
  }
  return true;
}

/// Map a parsed CliConfig onto core::Options and validate.  Options::
/// validate() (plus set_strand/set_schedule for the name-to-enum maps)
/// is the single source of truth for what is legal, so the CLI rejects
/// exactly what Session's constructor would reject — every diagnostic is
/// printed as "error: <message>" and the caller exits 2.
bool build_options(const CliConfig& config, core::Options& options,
                   std::ostream& err) {
  options = core::Options{};
  options.w = config.w;
  options.threads = config.threads;
  options.shards = config.shards;
  options.min_hsp_score = config.min_hsp_score;
  options.max_evalue = config.max_evalue;
  options.dust = config.dust;
  options.asymmetric = config.asymmetric;
  options.force_scalar_kernel = config.force_scalar;
  options.delivery_budget_bytes = config.delivery_budget_kb << 10;
  options.tmp_dir = config.tmp_dir;

  bool ok = true;
  const auto report = [&](const std::optional<core::OptionIssue>& issue) {
    if (issue) {
      err << "error: " << issue->message << '\n';
      ok = false;
    }
  };
  report(core::set_strand(options, config.strand));
  report(core::set_schedule(options, config.schedule));
  for (const core::OptionIssue& issue : options.validate()) {
    err << "error: " << issue.message << '\n';
    ok = false;
  }
  return ok;
}

/// Flags shared by the flat compare form and `scoris search`.  Numeric
/// values are parsed strictly (and range-checked through the same
/// core::check_range the library validator uses); names and the
/// assembled option set are validated by build_options afterwards.
bool parse_search_options(const util::Args& args, CliConfig& config,
                          std::ostream& err) {
  config.out_path = args.get("out");
  if (!parse_int_flag(args, "w", core::Options::kMinW, core::Options::kMaxW,
                      config.w, err)) {
    return false;
  }
  if (!parse_int_flag(args, "threads", core::Options::kMinThreads,
                      core::Options::kMaxThreads, config.threads, err)) {
    return false;
  }
  if (!parse_int_flag(args, "s1", 0, core::Options::kMaxHspScore,
                      config.min_hsp_score, err)) {
    return false;
  }
  if (!parse_double_flag(args, "evalue", config.max_evalue, err)) return false;

  config.strand = args.get("strand", config.strand);
  if (!parse_size_flag(args, "shards", 0,
                       static_cast<int>(core::Options::kMaxShards),
                       config.shards, err)) {
    return false;
  }
  config.schedule = args.get("schedule", config.schedule);
  if (!parse_size_flag(args, "memory-budget-mb", 1, 1 << 20,
                       config.memory_budget_mb, err)) {
    return false;
  }
  if (!parse_size_flag(args, "delivery-budget-kb", 1, 1 << 20,
                       config.delivery_budget_kb, err)) {
    return false;
  }
  config.tmp_dir = args.get("tmp-dir");
  config.trace_json_path = args.get("trace-json");

  config.workers = args.get("workers");
  if (!parse_int_flag(args, "worker-timeout-ms", 1, 1 << 30,
                      config.worker_timeout_ms, err)) {
    return false;
  }
  if (!parse_size_flag(args, "dist-slices", 0, 1 << 20, config.dist_slices,
                       err)) {
    return false;
  }

  config.dust = args.get_flag("dust", true);
  if (args.get_flag("no-dust")) config.dust = false;
  config.asymmetric = args.get_flag("asymmetric");
  config.force_scalar = args.get_flag("force-scalar");
  config.stats = args.get_flag("stats");

  return build_options(config, config.options, err);
}

void print_stats(std::ostream& err, const core::PipelineStats& s,
                 std::size_t alignments) {
  err << "scoris: " << alignments << " alignments, " << s.hit_pairs
      << " seed hits (" << s.order_aborts << " order-aborted), " << s.hsps
      << " HSPs, " << s.masked_bases << " DUST-masked bases\n"
      << "  step1 " << s.index_seconds << "s, step2 " << s.hsp_seconds
      << "s (kernel " << s.simd_kernel << "), step3 " << s.gapped_seconds
      << "s, total " << s.total_seconds << "s\n";
  // Step-3 work: extensions whose statistics came from the pure-diagonal
  // scan skip the banded re-DP that the rest pay for.
  err << "  step3 extensions: " << s.gapped.gapped_extensions << " ("
      << s.gapped.diagonal_fast_path << " diagonal fast path)\n";
  // Index memory accounting (paper section 3.1: ~5 bytes per position =
  // 4-byte INDEX entry + 1-byte SEQ code; dictionaries are O(4^W) apart).
  // The CSR offsets are the dictionaries and the position lists the INDEX
  // arrays, one entry per indexed word.
  const double per_pos =
      s.index_positions == 0
          ? 0.0
          : static_cast<double>(s.index_chain_bytes + s.index_positions) /
                static_cast<double>(s.index_positions);
  err << "  index memory: " << s.index_dict_bytes
      << " B dictionaries (CSR offsets) + " << s.index_chain_bytes
      << " B position lists over " << s.index_positions << " positions ("
      << std::fixed << std::setprecision(2) << per_pos
      << " bytes/position incl. SEQ)\n"
      << std::defaultfloat << std::setprecision(6);
  // Delivery-path buffering: what the engine retained between a group
  // finishing and the sink receiving its alignments.  The kGlobal
  // cross-group merge used to be invisible here, undercounting the
  // worst consumer.
  err << "  delivery memory: peak " << s.peak_delivery_bytes << " B";
  if (s.spilled_runs > 0) {
    err << " (" << s.spilled_runs << " spill run(s), " << s.spill_bytes
        << " B on disk)";
  }
  err << '\n';
  // Scheduler balance: the spread of step-2 shard wall times.  A max far
  // above the median means one seed-code range dominated the step.
  const auto& b = s.shard_balance;
  if (b.shards > 0) {
    err << "  step2 shards: " << b.shards << ", wall min/median/max "
        << std::fixed << std::setprecision(4) << b.min_seconds << "/"
        << b.median_seconds << "/" << b.max_seconds << " s ("
        << std::setprecision(2) << b.total_seconds
        << " s CPU total)\n"
        << std::defaultfloat << std::setprecision(6);
  }
  // Per-group spreads for the other stages (one sample per strand/slice
  // group): a straggling group shows up here without a profiler.
  const auto print_group_balance = [&err](const char* label,
                                          const core::exec::ShardBalance& g) {
    if (g.shards == 0) return;
    err << "  " << label << " groups: " << g.shards
        << ", wall min/median/max " << std::fixed << std::setprecision(4)
        << g.min_seconds << "/" << g.median_seconds << "/" << g.max_seconds
        << " s\n"
        << std::defaultfloat << std::setprecision(6);
  };
  print_group_balance("index", s.index_group_balance);
  print_group_balance("gapped", s.gapped_group_balance);
}

/// Open config.out_path (or fall back to `out`) before the potentially
/// long pipeline run so an unwritable path fails fast.
bool open_sink(const CliConfig& config, std::ostream& out,
               std::ofstream& out_file, std::ostream*& sink,
               std::ostream& err) {
  sink = &out;
  if (!config.out_path.empty()) {
    out_file.open(config.out_path);
    if (!out_file) {
      err << "error: cannot create " << config.out_path << '\n';
      return false;
    }
    sink = &out_file;
  }
  return true;
}

bool flush_sink(const CliConfig& config, std::ostream& sink,
                std::ostream& err) {
  sink.flush();
  if (!sink) {
    err << "error: writing m8 output"
        << (config.out_path.empty() ? "" : " to " + config.out_path)
        << " failed\n";
    return false;
  }
  return true;
}

/// Report the per-query streaming summary + stats (shared by the flat
/// and search drivers).
void print_outcome_stats(std::ostream& err, const CliConfig& config,
                         const SearchOutcome& outcome) {
  if (config.memory_budget_mb > 0) {
    err << "scoris: streamed bank2 in " << outcome.slices
        << " slice(s) under a " << config.memory_budget_mb
        << " MB index budget\n";
  }
  print_stats(err, outcome.stats, outcome.stats.alignments);
}

/// Streaming writes m8 lines before the run completes, so a mid-run
/// pipeline failure would otherwise leave a truncated (but well-formed)
/// --out file behind.  Restore the old all-or-nothing file contract by
/// truncating it; stdout streaming is inherently incremental and is
/// covered by the exit code.
void discard_partial_output(const CliConfig& config,
                            std::ofstream& out_file) {
  if (config.out_path.empty()) return;
  out_file.close();
  std::ofstream(config.out_path, std::ios::trunc);
}

/// Split `--workers host:port,unix:/path,...` into parsed endpoints.
bool parse_worker_list(const std::string& spec,
                       std::vector<net::Endpoint>& workers,
                       std::ostream& err) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string item =
        spec.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!item.empty()) {
      try {
        workers.push_back(net::parse_endpoint(item));
      } catch (const net::NetError& e) {
        err << "error: --workers: " << e.what() << '\n';
        return false;
      }
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (workers.empty()) {
    err << "error: --workers expects host:port[,host:port...]\n";
    return false;
  }
  return true;
}

/// One search through the distributed coordinator (--workers given):
/// byte-identical m8, plan groups fanned out over the worker endpoints
/// plus this process.  `index_path` non-empty ships the reference as a
/// .scix path (the `search` form); otherwise the bank is inlined.
SearchOutcome search_distributed(const Session& session,
                                 const seqio::SequenceBank& bank2,
                                 HitSink& sink, const SearchLimits& limits,
                                 const CliConfig& config,
                                 const std::string& index_path,
                                 std::vector<net::Endpoint> workers,
                                 std::ostream& err) {
  dist::DistConfig dcfg;
  dcfg.workers = std::move(workers);
  dcfg.connect_timeout_ms = config.worker_timeout_ms;
  dcfg.recv_timeout_ms = config.worker_timeout_ms;
  dcfg.dist_slices = config.dist_slices;
  dcfg.index_path = index_path;
  // Worker lifecycle events (connects, retries, abandoned workers) are
  // operational news the user should see; warn keeps the happy path
  // quiet.
  obs::Logger logger(err, obs::LogLevel::kWarn);
  dcfg.logger = &logger;
  return dist::run_distributed(session, bank2, sink, limits, dcfg);
}

int run_compare(const CliConfig& config, std::ostream& out,
                std::ostream& err) {
  seqio::SequenceBank bank1;
  seqio::SequenceBank bank2;
  try {
    bank1 = load_bank(config.bank1_path);
    bank2 = load_bank(config.bank2_path);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  std::ofstream out_file;
  std::ostream* sink = nullptr;
  if (!open_sink(config, out, out_file, sink, err)) return kRuntimeError;

  try {
    // One-shot session: the reference is indexed once and m8 lines
    // stream to the sink as they become final instead of accumulating.
    Session session(std::move(bank1), config.options);
    M8Writer writer(*sink);
    obs::TraceRecorder trace;
    SearchLimits limits;
    limits.memory_budget_bytes =
        static_cast<std::size_t>(config.memory_budget_mb) << 20;
    if (!config.trace_json_path.empty()) limits.trace = &trace;
    SearchOutcome outcome;
    if (!config.workers.empty()) {
      std::vector<net::Endpoint> workers;
      if (!parse_worker_list(config.workers, workers, err)) return kUsage;
      outcome = search_distributed(session, bank2, writer, limits, config,
                                   /*index_path=*/"", std::move(workers),
                                   err);
    } else {
      outcome = session.search(bank2, writer, limits);
    }
    if (!flush_sink(config, *sink, err)) return kRuntimeError;
    if (!config.trace_json_path.empty()) {
      trace.write_chrome_json(config.trace_json_path);
    }
    if (config.stats) print_outcome_stats(err, config, outcome);
  } catch (const SinkError& e) {
    // Output delivery failed (disk full, downstream pipe closed): the
    // pipeline itself was fine, so say what actually went wrong instead
    // of the generic pipeline diagnostic — and still exit 1, never 0
    // with truncated output.
    discard_partial_output(config, out_file);
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  } catch (const std::exception& e) {
    discard_partial_output(config, out_file);
    err << "error: pipeline failed: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_search(const CliConfig& config, std::ostream& out,
               std::ostream& err) {
  // Session's store constructor enforces that a payload matches this
  // search's effective settings; anything else silently changes the seed
  // set, so it throws with a diagnostic listing the available payloads.
  std::optional<Session> session;
  seqio::SequenceBank bank2;
  try {
    session.emplace(store::load_index(config.index_path), config.options);
    bank2 = load_bank(config.bank2_path);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  std::ofstream out_file;
  std::ostream* sink = nullptr;
  if (!open_sink(config, out, out_file, sink, err)) return kRuntimeError;

  try {
    M8Writer writer(*sink);
    obs::TraceRecorder trace;
    SearchLimits limits;
    limits.memory_budget_bytes =
        static_cast<std::size_t>(config.memory_budget_mb) << 20;
    if (!config.trace_json_path.empty()) limits.trace = &trace;
    SearchOutcome outcome;
    if (!config.workers.empty()) {
      std::vector<net::Endpoint> workers;
      if (!parse_worker_list(config.workers, workers, err)) return kUsage;
      // Workers that share a filesystem load the .scix themselves; the
      // coordinator only inlines bank bytes on the flat compare form.
      outcome = search_distributed(*session, bank2, writer, limits, config,
                                   config.index_path, std::move(workers),
                                   err);
    } else {
      outcome = session->search(bank2, writer, limits);
    }
    if (!flush_sink(config, *sink, err)) return kRuntimeError;
    if (!config.trace_json_path.empty()) {
      trace.write_chrome_json(config.trace_json_path);
    }
    if (config.stats) print_outcome_stats(err, config, outcome);
  } catch (const SinkError& e) {
    discard_partial_output(config, out_file);
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  } catch (const std::exception& e) {
    discard_partial_output(config, out_file);
    err << "error: pipeline failed: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_index(const IndexCliConfig& config, std::ostream& err) {
  seqio::SequenceBank bank;
  try {
    bank = load_bank(config.bank_path);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  store::IndexKey key;
  key.w = config.w;
  key.dust = config.dust;
  try {
    store::write_index_file(config.out_path, bank, {&key, 1});
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  if (config.stats) {
    const seqio::BankStats bs = bank.stats();
    err << "scoris index: " << bank.size() << " sequences, " << std::fixed
        << std::setprecision(2) << bs.mbp() << std::defaultfloat
        << " Mbp -> " << config.out_path << " (" << store::to_string(key)
        << ")\n";
  }
  return kOk;
}

/// The serving daemon, reachable from the SIGINT/SIGTERM handlers.
/// Server::request_stop is async-signal-safe (atomic store + write(2)),
/// so the handler body is too.
std::atomic<daemon::Server*> g_serving{nullptr};
/// Likewise for `scoris worker` — Worker::request_stop shares the same
/// atomic-plus-wake-pipe contract.  One process runs at most one of the
/// two daemons, so a single handler checking both atomics suffices.
std::atomic<dist::Worker*> g_worker{nullptr};

extern "C" void serve_signal_handler(int /*signo*/) {
  if (daemon::Server* server = g_serving.load(std::memory_order_acquire)) {
    server->request_stop();
  }
  if (dist::Worker* worker = g_worker.load(std::memory_order_acquire)) {
    worker->request_stop();
  }
}

/// Scoped SIGINT/SIGTERM -> request_stop installation around serve().
class ServeSignalScope {
 public:
  explicit ServeSignalScope(daemon::Server& server) {
    g_serving.store(&server, std::memory_order_release);
    struct sigaction action {};
    action.sa_handler = &serve_signal_handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~ServeSignalScope() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    g_serving.store(nullptr, std::memory_order_release);
  }
  ServeSignalScope(const ServeSignalScope&) = delete;
  ServeSignalScope& operator=(const ServeSignalScope&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// The worker-side twin of ServeSignalScope.
class WorkerSignalScope {
 public:
  explicit WorkerSignalScope(dist::Worker& worker) {
    g_worker.store(&worker, std::memory_order_release);
    struct sigaction action {};
    action.sa_handler = &serve_signal_handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~WorkerSignalScope() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    g_worker.store(nullptr, std::memory_order_release);
  }
  WorkerSignalScope(const WorkerSignalScope&) = delete;
  WorkerSignalScope& operator=(const WorkerSignalScope&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

int run_serve(const ServeCliConfig& config, std::ostream& err) {
  // All daemon output goes through the structured logger: RFC3339
  // timestamps, levels, and key=value fields (connection ids come from
  // the server).  --log-file redirects it; diagnostics the *CLI* emits
  // before the daemon exists stay plain "error:" lines on err.
  const obs::LogLevel level = obs::parse_log_level(config.log_level)
                                  .value_or(obs::LogLevel::kInfo);
  std::optional<obs::Logger> logger;
  try {
    if (!config.log_file.empty()) {
      logger.emplace(config.log_file, level);
    } else {
      logger.emplace(err, level);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  std::optional<Session> session;
  try {
    session.emplace(
        Session::open(config.search.index_path, config.search.options));
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  daemon::ServerConfig server_config;
  server_config.endpoint = config.endpoint;
  server_config.backlog = config.backlog;
  server_config.max_clients = config.max_clients;
  server_config.base_limits.memory_budget_bytes =
      static_cast<std::size_t>(config.search.memory_budget_mb) << 20;
  server_config.logger = &*logger;

  try {
    daemon::Server server(*session, server_config);
    server.bind();
    // The ready line CI and tests wait for — logged (and flushed by the
    // logger) before the loop blocks, carrying the resolved endpoint
    // (real port for TCP port-0 binds).
    logger->info("scoris serve: listening on " +
                     net::to_string(server.endpoint()),
                 {obs::kv("max_clients",
                          static_cast<unsigned long long>(
                              config.max_clients)),
                  obs::kv("threads", config.search.threads)});
    {
      ServeSignalScope signals(server);
      server.serve();
    }
    const daemon::ServerCounters counters = server.counters();
    logger->info("scoris serve: shut down after " +
                     std::to_string(counters.served) + " queries",
                 {obs::kv("connections", counters.accepted),
                  obs::kv("refused", counters.rejected),
                  obs::kv("failed", counters.failed)});
  } catch (const std::exception& e) {
    logger->error(e.what());
    return kRuntimeError;
  }
  return kOk;
}

int run_query(const QueryCliConfig& config, std::ostream& out,
              std::ostream& err) {
  // Re-serialize through the bank loader so .scob inputs work and a
  // malformed FASTA fails here, with a local diagnostic, rather than as
  // a server-side ERR.
  std::string fasta;
  try {
    const seqio::SequenceBank bank2 = load_bank(config.bank2_path);
    std::ostringstream text;
    seqio::write_fasta(text, bank2);
    fasta = text.str();
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  net::QueryStrand strand = net::QueryStrand::kDefault;
  if (config.strand == "plus") strand = net::QueryStrand::kPlus;
  else if (config.strand == "minus") strand = net::QueryStrand::kMinus;
  else if (config.strand == "both") strand = net::QueryStrand::kBoth;

  std::ofstream out_file;
  std::ostream* sink = &out;
  if (!config.out_path.empty()) {
    out_file.open(config.out_path);
    if (!out_file) {
      err << "error: cannot create " << config.out_path << '\n';
      return kRuntimeError;
    }
    sink = &out_file;
  }

  try {
    // A saturated daemon refuses with BUSY instead of queueing; --retry
    // turns that refusal into capped-backoff redials (the same
    // net::RetryPolicy the distributed coordinator re-dials workers
    // with) rather than an immediate exit 1.
    const net::RetryPolicy policy{config.retry, config.retry_backoff_ms,
                                  5000};
    std::optional<net::QueryClient> client;
    for (int attempt = 0; !client; ++attempt) {
      try {
        client.emplace(net::QueryClient::connect(config.endpoint));
      } catch (const net::ServerBusy&) {
        if (attempt >= policy.retries) throw;
        const int delay = policy.delay_ms(attempt);
        err << "scoris query: server busy, retrying in " << delay
            << " ms (attempt " << (attempt + 1) << "/" << policy.retries
            << ")\n";
        net::sleep_ms(delay);
      }
    }
    if (fasta.size() > client->max_query_bytes()) {
      err << "error: query is " << fasta.size()
          << " bytes; the server accepts at most "
          << client->max_query_bytes() << '\n';
      return kRuntimeError;
    }
    const net::QueryResult result =
        client->query(fasta, strand, [&](std::string_view rows) {
          sink->write(rows.data(),
                      static_cast<std::streamsize>(rows.size()));
          if (!*sink) {
            throw SinkError("m8 output stream failed (disk full?)");
          }
        });
    if (!result.ok) {
      err << "error: server: " << result.error << '\n';
      return kRuntimeError;
    }
    sink->flush();
    if (!*sink) {
      err << "error: writing m8 output"
          << (config.out_path.empty() ? "" : " to " + config.out_path)
          << " failed\n";
      return kRuntimeError;
    }
    if (config.stats) {
      err << "scoris query: " << result.alignments << " alignments, "
          << result.row_bytes << " m8 bytes";
      if (result.server_seconds >= 0) {
        // v2 servers report their own wall time in DONE, so the client
        // can separate server compute from transfer/parse overhead.
        const std::streamsize precision = err.precision();
        err << ", server " << std::fixed << std::setprecision(3)
            << result.server_seconds << " s";
        err << std::defaultfloat << std::setprecision(precision);
      }
      err << '\n';
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_worker(const WorkerCliConfig& config, std::ostream& err) {
  // Same logging discipline as serve: structured logger for everything
  // the daemon says, plain "error:" lines only before it exists.
  const obs::LogLevel level = obs::parse_log_level(config.log_level)
                                  .value_or(obs::LogLevel::kInfo);
  std::optional<obs::Logger> logger;
  try {
    if (!config.log_file.empty()) {
      logger.emplace(config.log_file, level);
    } else {
      logger.emplace(err, level);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  dist::WorkerConfig worker_config;
  worker_config.endpoint = config.endpoint;
  worker_config.backlog = config.backlog;
  worker_config.threads = config.threads;
  worker_config.max_jobs = config.max_jobs;
  worker_config.logger = &*logger;

  try {
    dist::Worker worker(worker_config);
    worker.bind();
    // The ready line coordinators, CI, and tests wait for — flushed
    // before the accept loop blocks, with the resolved endpoint.
    logger->info("scoris worker: listening on " +
                     net::to_string(worker.endpoint()),
                 {obs::kv("max_jobs", static_cast<unsigned long long>(
                                          config.max_jobs)),
                  obs::kv("threads", config.threads)});
    {
      WorkerSignalScope signals(worker);
      worker.serve();
    }
    const dist::WorkerCounters counters = worker.counters();
    logger->info("scoris worker: shut down after " +
                     std::to_string(counters.groups) + " groups",
                 {obs::kv("connections", counters.accepted),
                  obs::kv("jobs", counters.jobs),
                  obs::kv("failed", counters.failed)});
  } catch (const std::exception& e) {
    logger->error(e.what());
    return kRuntimeError;
  }
  return kOk;
}

int run_stats(const StatsCliConfig& config, std::ostream& out,
              std::ostream& err) {
  try {
    net::QueryClient client = net::QueryClient::connect(config.endpoint);
    out << client.stats();
    out.flush();
    if (!out) {
      err << "error: writing metrics output failed\n";
      return kRuntimeError;
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

}  // namespace

void print_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program
     << " --bank1 <a.fa> --bank2 <b.fa> [options]\n"
     << "       " << program << " <a.fa> <b.fa> [options]\n"
     << "       " << program << " index --bank <ref.fa> --out <ref.scix>\n"
     << "       " << program
     << " search --index <ref.scix> --bank2 <b.fa> [options]\n"
     << "       " << program << " serve --index <ref.scix> --listen <addr>\n"
     << "       " << program << " query --connect <addr> --bank2 <b.fa>\n"
     << "       " << program << " stats --connect <addr>\n"
     << "       " << program << " worker --listen <addr>\n"
     << "\n"
     << "Compare two DNA banks with the ORIS pipeline and write BLAST -m 8\n"
     << "tabular output. Banks are FASTA files (or binary .scob banks);\n"
     << "`index`/`search` prebuild and reuse a .scix bank+index artifact\n"
     << "(see `" << program << " index --help`).\n"
     << "\n"
     << "options:\n"
     << "  --bank1 FILE    query-side bank (m8 qseqid column)\n"
     << "  --bank2 FILE    subject-side bank (m8 sseqid column)\n"
     << "  --out FILE      write m8 output to FILE (default: stdout)\n"
     << "  --w N           seed length, 4..14 (default 11)\n"
     << "  --threads N     worker threads for steps 2-3 (default 1)\n"
     << "  --shards N      step-2 seed-code shards per strand/slice group\n"
     << "                  (default 0 = auto; output-invariant)\n"
     << "  --schedule S    shard scheduler: stealing (default) or static\n"
     << "  --strand S      plus (default, paper's -S 1), minus, or both\n"
     << "  --evalue E      e-value cutoff (default 1e-3)\n"
     << "  --dust BOOL     low-complexity filter (default true)\n"
     << "  --no-dust       shorthand for --dust false\n"
     << "  --asymmetric    10-nt words, stride-2 index on bank2\n"
     << "  --s1 SCORE      minimum HSP raw score (default 25)\n"
     << "  --memory-budget-mb N   stream bank2 in slices under N MB of\n"
     << "                  index memory (default: no slicing)\n"
     << "  --delivery-budget-kb N   bound the multi-group merge's output\n"
     << "                  buffering to N KB; sorted group runs spill to\n"
     << "                  temp files over it (default: unbounded)\n"
     << "  --tmp-dir DIR   directory for spill-run temp files (default:\n"
     << "                  the system temp directory)\n"
     << "  --trace-json FILE   write per-stage spans (index/scan/gapped/\n"
     << "                  merge) as Chrome trace_event JSON to FILE\n"
     << "  --workers LIST  comma-separated `" << program
     << " worker` endpoints\n"
     << "                  (host:port or unix:/path); distribute plan\n"
     << "                  groups over them, byte-identical output\n"
     << "  --worker-timeout-ms N   per-worker connect deadline and recv\n"
     << "                  silence bound (default 30000)\n"
     << "  --dist-slices N minimum bank2 slices when distributing\n"
     << "                  (default 0 = auto; output-invariant)\n"
     << "  --force-scalar  pin step 2 to the scalar match-run kernel\n"
     << "                  instead of the best SIMD one (output-invariant;\n"
     << "                  for A/B timing)\n"
     << "  --stats         print per-step statistics to stderr\n"
     << "  --kernel        print the match-run kernel this machine\n"
     << "                  dispatches to (scalar/sse4.1/avx2) and exit\n"
     << "  --help          show this message and exit\n"
     << "  --version       show version and exit\n";
}

void print_index_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program
     << " index --bank <ref.fa> --out <ref.scix> [options]\n"
     << "\n"
     << "Build a persistent .scix artifact: the bank (2-bit packed) plus a\n"
     << "precomputed seed index, loadable by `" << program
     << " search` without\n"
     << "re-parsing FASTA or re-scanning a single sequence.\n"
     << "\n"
     << "options:\n"
     << "  --bank FILE     bank to index (FASTA or .scob; also positional)\n"
     << "  --out FILE      artifact path to create (required)\n"
     << "  --w N           seed length, 4..13 (default 11; use 10 for\n"
     << "                  searches that will run --asymmetric)\n"
     << "  --dust BOOL     DUST-mask before indexing (default true); the\n"
     << "                  search must use the same setting\n"
     << "  --no-dust       shorthand for --dust false\n"
     << "  --stats         print a build summary to stderr\n"
     << "  --help          show this message and exit\n";
}

void print_search_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program
     << " search --index <ref.scix> --bank2 <b.fa> [options]\n"
     << "\n"
     << "Compare a prebuilt .scix artifact (the bank1/query side) against a\n"
     << "FASTA/.scob bank. Output is byte-identical to the flat invocation\n"
     << "on the artifact's source FASTA when the settings match.\n"
     << "\n"
     << "options:\n"
     << "  --index FILE    .scix artifact built by `" << program
     << " index`\n"
     << "  --bank2 FILE    subject-side bank (m8 sseqid column)\n"
     << "  --out FILE      write m8 output to FILE (default: stdout)\n"
     << "  --w N           seed length; must match the artifact (default 11)\n"
     << "  --threads N     worker threads for steps 2-3 (default 1)\n"
     << "  --shards N      step-2 seed-code shards per strand/slice group\n"
     << "                  (default 0 = auto; output-invariant)\n"
     << "  --schedule S    shard scheduler: stealing (default) or static\n"
     << "  --strand S      plus (default), minus, or both\n"
     << "  --evalue E      e-value cutoff (default 1e-3)\n"
     << "  --dust BOOL / --no-dust   must match the artifact (default true)\n"
     << "  --asymmetric    10-nt words, stride-2 index on bank2 (artifact\n"
     << "                  must hold a w=10 payload)\n"
     << "  --s1 SCORE      minimum HSP raw score (default 25)\n"
     << "  --memory-budget-mb N   stream bank2 in slices under N MB of\n"
     << "                  index memory (default: no slicing)\n"
     << "  --delivery-budget-kb N   bound the multi-group merge's output\n"
     << "                  buffering to N KB; sorted group runs spill to\n"
     << "                  temp files over it (default: unbounded)\n"
     << "  --tmp-dir DIR   directory for spill-run temp files (default:\n"
     << "                  the system temp directory)\n"
     << "  --trace-json FILE   write per-stage spans (index/scan/gapped/\n"
     << "                  merge) as Chrome trace_event JSON to FILE\n"
     << "  --workers LIST  comma-separated `" << program
     << " worker` endpoints;\n"
     << "                  workers load the .scix from their own\n"
     << "                  filesystem (shared path required)\n"
     << "  --worker-timeout-ms N   per-worker connect deadline and recv\n"
     << "                  silence bound (default 30000)\n"
     << "  --dist-slices N minimum bank2 slices when distributing\n"
     << "                  (default 0 = auto; output-invariant)\n"
     << "  --force-scalar  pin step 2 to the scalar match-run kernel\n"
     << "                  instead of the best SIMD one (output-invariant;\n"
     << "                  for A/B timing)\n"
     << "  --stats         print per-step statistics to stderr\n"
     << "  --help          show this message and exit\n";
}

void print_serve_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program
     << " serve --index <ref.scix> --listen <addr> [options]\n"
     << "\n"
     << "Run the scorisd daemon: prepare the reference once, then answer\n"
     << "FASTA queries from concurrent network clients over one shared\n"
     << "immutable session (see docs/API.md for the wire protocol).\n"
     << "Prints `listening on <addr>` to stderr when ready; SIGINT or\n"
     << "SIGTERM drains in-flight queries and exits 0.\n"
     << "\n"
     << "options:\n"
     << "  --index FILE    reference: .scix artifact, .scob bank, or FASTA\n"
     << "  --listen ADDR   host:port (port 0 = ephemeral, real port in the\n"
     << "                  ready line) or unix:/path/to.sock\n"
     << "  --max-clients N concurrent admitted connections (default 4);\n"
     << "                  excess connections get a BUSY frame\n"
     << "  --backlog N     kernel accept-queue bound (default 16)\n"
     << "  --threads N     worker threads shared by all queries (default 1)\n"
     << "  --w / --strand / --evalue / --dust / --no-dust / --asymmetric /\n"
     << "  --s1 / --shards / --schedule   session options, as in `"
     << program << " search`\n"
     << "  --memory-budget-mb N / --delivery-budget-kb N / --tmp-dir DIR\n"
     << "                  per-query memory discipline, as in `" << program
     << " search`\n"
     << "  --log-level L   error, warn, info (default), or debug\n"
     << "  --log-file FILE append structured logs to FILE (default: the\n"
     << "                  error stream)\n"
     << "  --help          show this message and exit\n";
}

void print_query_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program
     << " query --connect <addr> --bank2 <b.fa> [options]\n"
     << "\n"
     << "Send one bank to a running `" << program
     << " serve` daemon and stream the\n"
     << "m8 result to stdout (or --out). Exits 1 if the server is busy,\n"
     << "unreachable, or reports a query error.\n"
     << "\n"
     << "options:\n"
     << "  --connect ADDR  host:port or unix:/path, as given to --listen\n"
     << "  --bank2 FILE    subject-side bank (FASTA or .scob)\n"
     << "  --out FILE      write m8 output to FILE (default: stdout)\n"
     << "  --strand S      plus, minus, or both (default: the server's)\n"
     << "  --stats         print the result summary to stderr (includes\n"
     << "                  the server-side query seconds on v2 servers)\n"
     << "  --retry N       retry a BUSY refusal up to N times with capped\n"
     << "                  exponential backoff (default 0 = fail fast)\n"
     << "  --retry-backoff-ms M   delay before the first retry (default\n"
     << "                  100; doubles per attempt, capped at 5000)\n"
     << "  --help          show this message and exit\n";
}

void print_stats_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program << " stats --connect <addr>\n"
     << "\n"
     << "Fetch a live metrics snapshot from a running `" << program
     << " serve`\n"
     << "daemon and print it to stdout in Prometheus text exposition\n"
     << "format (see docs/OBSERVABILITY.md for the metric inventory).\n"
     << "Requires a protocol-v2 server. Exits 1 if the server is busy,\n"
     << "unreachable, or too old to answer STAT frames.\n"
     << "\n"
     << "options:\n"
     << "  --connect ADDR  host:port or unix:/path, as given to --listen\n"
     << "  --help          show this message and exit\n";
}

void print_worker_usage(std::ostream& os, const std::string& program) {
  os << "usage: " << program << " worker --listen <addr> [options]\n"
     << "\n"
     << "Run a distributed shard worker: wait for a coordinator (`"
     << program << "`\n"
     << "with --workers), receive the reference + query bank + options,\n"
     << "execute assigned plan groups through the local engine, and stream\n"
     << "each sorted run back over the connection (docs/API.md, worker\n"
     << "protocol v1). Prints `listening on <addr>` when ready; SIGINT or\n"
     << "SIGTERM drains in-flight groups and exits 0.\n"
     << "\n"
     << "options:\n"
     << "  --listen ADDR   host:port (port 0 = ephemeral, real port in the\n"
     << "                  ready line) or unix:/path/to.sock\n"
     << "  --threads N     engine threads per job (default 1);\n"
     << "                  output-invariant, chosen by the worker\n"
     << "  --max-jobs N    concurrent coordinator connections (default 2);\n"
     << "                  excess connections are refused\n"
     << "  --backlog N     kernel accept-queue bound (default 16)\n"
     << "  --log-level L   error, warn, info (default), or debug\n"
     << "  --log-file FILE append structured logs to FILE (default: the\n"
     << "                  error stream)\n"
     << "  --help          show this message and exit\n";
}

bool parse_cli(int argc, const char* const* argv, CliConfig& config,
               std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_flags(), err)) return false;

  for (const char* name : {"stats", "asymmetric", "dust", "no-dust",
                           "force-scalar", "kernel", "help", "version"}) {
    if (!check_boolean_flag(args, name, err)) return false;
  }

  config.help = args.get_flag("help");
  config.version = args.get_flag("version");
  config.kernel_probe = args.get_flag("kernel");
  if (config.help || config.version || config.kernel_probe) return true;

  config.bank1_path = args.get("bank1");
  config.bank2_path = args.get("bank2");
  const auto& positional = args.positional();
  if (!positional.empty()) {
    if (!config.bank1_path.empty() || !config.bank2_path.empty()) {
      err << "error: unexpected positional argument '" << positional[0]
          << "' (banks already given via --bank1/--bank2)\n";
      return false;
    }
    if (positional.size() != 2) {
      err << "error: expected exactly two positional banks, got "
          << positional.size() << '\n';
      return false;
    }
    config.bank1_path = positional[0];
    config.bank2_path = positional[1];
  }
  if (config.bank1_path.empty() || config.bank2_path.empty()) {
    err << "error: both --bank1 and --bank2 are required\n";
    return false;
  }

  return parse_search_options(args, config, err);
}

bool parse_search_cli(int argc, const char* const* argv, CliConfig& config,
                      std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_search_flags(), err)) return false;
  for (const char* name : {"stats", "asymmetric", "dust", "no-dust",
                           "force-scalar", "help"}) {
    if (!check_boolean_flag(args, name, err)) return false;
  }

  config.help = args.get_flag("help");
  if (config.help) return true;

  if (!args.positional().empty()) {
    err << "error: search takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }
  config.index_path = args.get("index");
  config.bank2_path = args.get("bank2");
  if (config.index_path.empty() || config.bank2_path.empty()) {
    err << "error: both --index and --bank2 are required\n";
    return false;
  }
  if (!parse_search_options(args, config, err)) return false;
  // Artifacts cap W at 13 (4^W offsets); the flat form's W=14 can never
  // match a payload, so reject it here as the usage error it is —
  // except under --asymmetric, where the effective word length is 10.
  if (config.w > 13 && !config.asymmetric) {
    err << "error: --w must be <= 13 for search (.scix artifacts cap W at "
           "13)\n";
    return false;
  }
  return true;
}

bool parse_index_cli(int argc, const char* const* argv,
                     IndexCliConfig& config, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_index_flags(), err)) return false;
  for (const char* name : {"stats", "dust", "no-dust", "help"}) {
    if (!check_boolean_flag(args, name, err)) return false;
  }

  config.help = args.get_flag("help");
  if (config.help) return true;

  config.bank_path = args.get("bank");
  const auto& positional = args.positional();
  if (!positional.empty()) {
    if (!config.bank_path.empty() || positional.size() != 1) {
      err << "error: expected exactly one bank (--bank FILE or one "
             "positional)\n";
      return false;
    }
    config.bank_path = positional[0];
  }
  if (config.bank_path.empty()) {
    err << "error: --bank is required\n";
    return false;
  }
  config.out_path = args.get("out");
  if (config.out_path.empty()) {
    err << "error: --out is required\n";
    return false;
  }
  if (!parse_int_flag(args, "w", 4, 13, config.w, err)) return false;
  config.dust = args.get_flag("dust", true);
  if (args.get_flag("no-dust")) config.dust = false;
  config.stats = args.get_flag("stats");
  return true;
}

bool parse_serve_cli(int argc, const char* const* argv,
                     ServeCliConfig& config, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_serve_flags(), err)) return false;
  for (const char* name : {"asymmetric", "dust", "no-dust", "help"}) {
    if (!check_boolean_flag(args, name, err)) return false;
  }

  config.help = args.get_flag("help");
  if (config.help) return true;

  if (!args.positional().empty()) {
    err << "error: serve takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }
  config.search.index_path = args.get("index");
  const std::string listen = args.get("listen");
  if (config.search.index_path.empty() || listen.empty()) {
    err << "error: both --index and --listen are required\n";
    return false;
  }
  try {
    config.endpoint = net::parse_endpoint(listen);
  } catch (const net::NetError& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  std::size_t max_clients = config.max_clients;
  if (!parse_size_flag(args, "max-clients", 1, 1 << 10, max_clients, err)) {
    return false;
  }
  config.max_clients = max_clients;
  if (!parse_int_flag(args, "backlog", 1, 1 << 12, config.backlog, err)) {
    return false;
  }
  const std::string log_level = args.get("log-level");
  if (!log_level.empty()) {
    if (!obs::parse_log_level(log_level)) {
      err << "error: --log-level must be error, warn, info, or debug (got '"
          << log_level << "')\n";
      return false;
    }
    config.log_level = log_level;
  }
  config.log_file = args.get("log-file");
  return parse_search_options(args, config.search, err);
}

bool parse_query_cli(int argc, const char* const* argv,
                     QueryCliConfig& config, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_query_flags(), err)) return false;
  for (const char* name : {"stats", "help"}) {
    if (!check_boolean_flag(args, name, err)) return false;
  }

  config.help = args.get_flag("help");
  if (config.help) return true;

  if (!args.positional().empty()) {
    err << "error: query takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }
  const std::string connect = args.get("connect");
  config.bank2_path = args.get("bank2");
  if (connect.empty() || config.bank2_path.empty()) {
    err << "error: both --connect and --bank2 are required\n";
    return false;
  }
  try {
    config.endpoint = net::parse_endpoint(connect);
  } catch (const net::NetError& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  config.out_path = args.get("out");
  config.strand = args.get("strand");
  if (!config.strand.empty() && config.strand != "plus" &&
      config.strand != "minus" && config.strand != "both") {
    err << "error: --strand must be plus, minus, or both (got '"
        << config.strand << "')\n";
    return false;
  }
  config.stats = args.get_flag("stats");
  if (!parse_int_flag(args, "retry", 0, 1000, config.retry, err)) {
    return false;
  }
  if (!parse_int_flag(args, "retry-backoff-ms", 1, 1 << 20,
                      config.retry_backoff_ms, err)) {
    return false;
  }
  return true;
}

bool parse_worker_cli(int argc, const char* const* argv,
                      WorkerCliConfig& config, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_worker_flags(), err)) return false;
  if (!check_boolean_flag(args, "help", err)) return false;

  config.help = args.get_flag("help");
  if (config.help) return true;

  if (!args.positional().empty()) {
    err << "error: worker takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }
  const std::string listen = args.get("listen");
  if (listen.empty()) {
    err << "error: --listen is required\n";
    return false;
  }
  try {
    config.endpoint = net::parse_endpoint(listen);
  } catch (const net::NetError& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  if (!parse_int_flag(args, "threads", 1, 1 << 10, config.threads, err)) {
    return false;
  }
  if (!parse_int_flag(args, "backlog", 1, 1 << 12, config.backlog, err)) {
    return false;
  }
  std::size_t max_jobs = config.max_jobs;
  if (!parse_size_flag(args, "max-jobs", 1, 1 << 10, max_jobs, err)) {
    return false;
  }
  config.max_jobs = max_jobs;
  const std::string log_level = args.get("log-level");
  if (!log_level.empty()) {
    if (!obs::parse_log_level(log_level)) {
      err << "error: --log-level must be error, warn, info, or debug (got '"
          << log_level << "')\n";
      return false;
    }
    config.log_level = log_level;
  }
  config.log_file = args.get("log-file");
  return true;
}

bool parse_stats_cli(int argc, const char* const* argv,
                     StatsCliConfig& config, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);

  if (!reject_unknown_flags(args, known_stats_flags(), err)) return false;
  if (!check_boolean_flag(args, "help", err)) return false;

  config.help = args.get_flag("help");
  if (config.help) return true;

  if (!args.positional().empty()) {
    err << "error: stats takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }
  const std::string connect = args.get("connect");
  if (connect.empty()) {
    err << "error: --connect is required\n";
    return false;
  }
  try {
    config.endpoint = net::parse_endpoint(connect);
  } catch (const net::NetError& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  return true;
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  // Every entry form may write to a pipe the reader has closed (stdout
  // into `head`, a query client that died); fail those writes with
  // EPIPE -> SinkError -> exit 1 instead of dying on SIGPIPE.
  net::ignore_sigpipe();
  const std::string program = argc > 0 ? argv[0] : "scoris";
  const std::string subcommand = argc > 1 ? argv[1] : "";

  if (subcommand == "index") {
    IndexCliConfig config;
    if (!parse_index_cli(argc - 1, argv + 1, config, err)) {
      print_index_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_index_usage(out, program);
      return kOk;
    }
    return run_index(config, err);
  }

  if (subcommand == "search") {
    CliConfig config;
    if (!parse_search_cli(argc - 1, argv + 1, config, err)) {
      print_search_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_search_usage(out, program);
      return kOk;
    }
    return run_search(config, out, err);
  }

  if (subcommand == "serve") {
    ServeCliConfig config;
    if (!parse_serve_cli(argc - 1, argv + 1, config, err)) {
      print_serve_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_serve_usage(out, program);
      return kOk;
    }
    return run_serve(config, err);
  }

  if (subcommand == "query") {
    QueryCliConfig config;
    if (!parse_query_cli(argc - 1, argv + 1, config, err)) {
      print_query_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_query_usage(out, program);
      return kOk;
    }
    return run_query(config, out, err);
  }

  if (subcommand == "worker") {
    WorkerCliConfig config;
    if (!parse_worker_cli(argc - 1, argv + 1, config, err)) {
      print_worker_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_worker_usage(out, program);
      return kOk;
    }
    return run_worker(config, err);
  }

  if (subcommand == "stats") {
    StatsCliConfig config;
    if (!parse_stats_cli(argc - 1, argv + 1, config, err)) {
      print_stats_usage(err, program);
      return kUsage;
    }
    if (config.help) {
      print_stats_usage(out, program);
      return kOk;
    }
    return run_stats(config, out, err);
  }

  CliConfig config;
  if (!parse_cli(argc, argv, config, err)) {
    print_usage(err, program);
    return kUsage;
  }
  if (config.help) {
    print_usage(out, program);
    return kOk;
  }
  if (config.version) {
    out << kVersion << '\n';
    return kOk;
  }
  if (config.kernel_probe) {
    // What a run on this machine would use: the best supported kernel,
    // demoted to scalar when SCORIS_FORCE_SCALAR is set.
    out << align::simd::dispatch().name << '\n';
    return kOk;
  }
  return run_compare(config, out, err);
}

}  // namespace scoris::cli
