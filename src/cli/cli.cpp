#include "cli/cli.hpp"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

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

/// What any of the seven forms parses: the compare/search fields plus the
/// daemon and client settings.
struct Config : CliConfig {
  net::Endpoint endpoint;       ///< --listen (serve, worker) or --connect
  std::size_t max_clients = 4;  ///< serve: concurrent admitted connections
  std::size_t max_jobs = 2;     ///< worker: concurrent coordinator connections
  int backlog = 16;             ///< kernel accept-queue bound
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  std::string log_file;  ///< structured-log path; empty = the error stream
  net::QueryStrand query_strand = net::QueryStrand::kDefault;
  /// query: retry a BUSY admission refusal up to this many times with
  /// capped exponential backoff (net::RetryPolicy — the same policy the
  /// distributed coordinator re-dials workers with).  0 = fail fast.
  int retry = 0;
  int retry_backoff_ms = 100;  ///< delay before the first retry
};

/// Load a bank from FASTA, or from the binary .scob format when the path
/// ends in ".scob".
seqio::SequenceBank load_bank(const std::string& path) {
  if (path.size() > 5 && path.compare(path.size() - 5, 5, ".scob") == 0) {
    return seqio::load_bank_file(path);
  }
  return seqio::read_fasta_file(path);
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

// --- the flag table ---------------------------------------------------------

/// How a flag's value is read.  Numbers are parsed strictly (Args::get_int
/// would silently fall back on a typo like `--evalue 1e-3x`) and
/// range-checked before narrowing through core::check_range, the helper
/// Options::validate() uses, so the CLI and the library reject with one
/// message.
enum class Kind { kSwitch, kInt, kSize, kDouble, kText, kEndpoint, kEndpoints };
using enum Kind;

/// Where a flag's value is stored; the alternative matches the Kind.
using Slot = std::variant<bool*, int*, std::size_t*, double*, std::string*,
                          net::Endpoint*, std::vector<net::Endpoint>*>;

/// Stores a text value that has a fixed set of spellings, or says why not.
using Setter = std::optional<core::OptionIssue> (*)(Config&, std::string_view);

/// One flag: its value, bounds, destination and --help line.  In `help`,
/// '\n' continues on an indented line, {range} prints "lo..hi" and $0 the
/// program name.
struct Flag {
  const char* name;
  Kind kind;
  const char* metavar;  ///< "" for a switch that is written bare
  const char* help;
  Slot (*slot)(Config&) = nullptr;  ///< null: `set`, or --no-dust's rule
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  Setter set = nullptr;
};

std::optional<core::OptionIssue> set_strand(Config& c, std::string_view name) {
  return core::set_strand(c.options, name);
}

std::optional<core::OptionIssue> set_schedule(Config& c,
                                              std::string_view name) {
  return core::set_schedule(c.options, name);
}

std::optional<core::OptionIssue> set_log_level(Config& c,
                                               std::string_view name) {
  if (name.empty()) return std::nullopt;
  const std::optional<obs::LogLevel> level = obs::parse_log_level(name);
  if (!level) {
    return core::OptionIssue{
        "log-level", "--log-level must be error, warn, info, or debug (got '" +
                         std::string(name) + "')"};
  }
  c.log_level = *level;
  return std::nullopt;
}

/// `query --strand`: empty leaves the choice to the server.
std::optional<core::OptionIssue> set_query_strand(Config& c,
                                                  std::string_view name) {
  if (name == "plus") {
    c.query_strand = net::QueryStrand::kPlus;
  } else if (name == "minus") {
    c.query_strand = net::QueryStrand::kMinus;
  } else if (name == "both") {
    c.query_strand = net::QueryStrand::kBoth;
  } else if (!name.empty()) {
    return core::OptionIssue{"strand",
                             "--strand must be plus, minus, or both (got '" +
                                 std::string(name) + "')"};
  }
  return std::nullopt;
}

// A row's destination: `field` of the Config being parsed.
#define SLOT(field) [](Config& c) -> Slot { return &c.field; }

constexpr Flag kHelpFlags[] = {
    {"help", kSwitch, "", "show this message and exit", SLOT(help)},
};

/// The flat compare form's own flags.
constexpr Flag kCompareFlags[] = {
    {"bank1", kText, "FILE", "query-side bank (m8 qseqid column)",
     SLOT(bank1_path)},
};
constexpr Flag kProbeFlags[] = {
    {"kernel", kSwitch, "",
     "print the match-run kernel this machine\n"
     "dispatches to (scalar/sse4.1/avx2) and exit",
     SLOT(kernel_probe)},
    {"version", kSwitch, "", "show version and exit", SLOT(version)},
};

/// Input, output and --stats of the compare, `search` and `query` forms.
constexpr Flag kOutputFlags[] = {
    {"bank2", kText, "FILE", "subject-side bank (m8 sseqid column)",
     SLOT(bank2_path)},
    {"out", kText, "FILE", "write m8 output to FILE (default: stdout)",
     SLOT(out_path)},
    {"stats", kSwitch, "", "print run statistics to stderr", SLOT(stats)},
};

/// Session settings of the compare, `search` and `serve` forms.
constexpr Flag kSearchFlags[] = {
    {"w", kInt, "N", "seed length, {range} (default 11)", SLOT(options.w),
     core::Options::kMinW, core::Options::kMaxW},
    {"threads", kInt, "N", "worker threads for steps 2-3 (default 1)",
     SLOT(options.threads), core::Options::kMinThreads,
     core::Options::kMaxThreads},
    {"shards", kSize, "N",
     "step-2 seed-code shards per strand/slice group\n"
     "(default 0 = auto; output-invariant)",
     SLOT(options.shards), 0, core::Options::kMaxShards},
    {.name = "strand", .kind = kText, .metavar = "S",
     .help = "plus (default, paper's -S 1), minus, or both", .set = set_strand},
    {.name = "schedule", .kind = kText, .metavar = "S",
     .help = "shard scheduler: stealing (default) or static",
     .set = set_schedule},
    {"evalue", kDouble, "E", "e-value cutoff (default 1e-3)",
     SLOT(options.max_evalue)},
    {"dust", kSwitch, "BOOL", "low-complexity filter (default true)",
     SLOT(options.dust)},
    {"no-dust", kSwitch, "", "shorthand for --dust false"},
    {"asymmetric", kSwitch, "", "10-nt words, stride-2 index on bank2",
     SLOT(options.asymmetric)},
    {"s1", kInt, "SCORE", "minimum HSP raw score (default 25)",
     SLOT(options.min_hsp_score), 0, core::Options::kMaxHspScore},
    {"memory-budget-mb", kSize, "N",
     "stream bank2 in slices under N MB of\n"
     "index memory (default: no slicing)",
     SLOT(memory_budget_mb), 1, 1 << 20},
    {"delivery-budget-kb", kSize, "N",
     "bound the multi-group merge's output\n"
     "buffering to N KB; sorted group runs spill to\n"
     "temp files over it (default: unbounded)",
     SLOT(delivery_budget_kb), 1, 1 << 20},
    {"tmp-dir", kText, "DIR",
     "directory for spill-run temp files (default:\n"
     "the system temp directory)",
     SLOT(options.tmp_dir)},
};

/// Tracing, kernel and distribution flags of the compare and `search`
/// forms.
constexpr Flag kRunFlags[] = {
    {"trace-json", kText, "FILE",
     "write per-stage spans (index/scan/gapped/\n"
     "merge) as Chrome trace_event JSON to FILE",
     SLOT(trace_json_path)},
    {"force-scalar", kSwitch, "",
     "pin step 2 to the scalar match-run kernel\n"
     "instead of the best SIMD one (output-invariant;\n"
     "for A/B timing)",
     SLOT(options.force_scalar_kernel)},
    {"workers", kEndpoints, "LIST",
     "comma-separated `$0 worker` endpoints\n"
     "(host:port or unix:/path); distribute plan\n"
     "groups over them, byte-identical output",
     SLOT(workers)},
    {"worker-timeout-ms", kInt, "N",
     "per-worker connect deadline and recv\n"
     "silence bound (default 30000)",
     SLOT(worker_timeout_ms), 1, 1 << 30},
    {"dist-slices", kSize, "N",
     "minimum bank2 slices when distributing\n"
     "(default 0 = auto; output-invariant)",
     SLOT(dist_slices), 0, 1 << 20},
};

constexpr Flag kIndexFlags[] = {
    {"bank", kText, "FILE", "bank to index (FASTA or .scob; also positional)",
     SLOT(bank1_path)},
    {"out", kText, "FILE", "artifact path to create (required)",
     SLOT(out_path)},
    {"w", kInt, "N",
     "seed length, {range} (default 11; use 10 for\n"
     "searches that will run --asymmetric)",
     SLOT(options.w), core::Options::kMinW, store::kMaxStoreW},
    {"dust", kSwitch, "BOOL",
     "DUST-mask before indexing (default true); the\n"
     "search must use the same setting",
     SLOT(options.dust)},
    {"no-dust", kSwitch, "", "shorthand for --dust false"},
    {"stats", kSwitch, "", "print a build summary to stderr", SLOT(stats)},
};

constexpr Flag kArtifactFlags[] = {
    {"index", kText, "FILE", ".scix artifact built by `$0 index`",
     SLOT(index_path)},
};

constexpr Flag kServeFlags[] = {
    {"index", kText, "FILE", "reference: .scix artifact, .scob bank, or FASTA",
     SLOT(index_path)},
    {"max-clients", kSize, "N",
     "concurrent admitted connections (default 4);\n"
     "excess connections get a BUSY frame",
     SLOT(max_clients), 1, 1 << 10},
};

/// The two daemons, `serve` and `worker`.
constexpr Flag kDaemonFlags[] = {
    {"listen", kEndpoint, "ADDR",
     "host:port (port 0 = ephemeral, real port in the\n"
     "ready line) or unix:/path/to.sock",
     SLOT(endpoint)},
    {"backlog", kInt, "N", "kernel accept-queue bound (default 16)",
     SLOT(backlog), 1, 1 << 12},
    {.name = "log-level", .kind = kText, .metavar = "L",
     .help = "error, warn, info (default), or debug", .set = set_log_level},
    {"log-file", kText, "FILE",
     "append structured logs to FILE (default: the\n"
     "error stream)",
     SLOT(log_file)},
};

constexpr Flag kWorkerFlags[] = {
    {"threads", kInt, "N",
     "engine threads per job (default 1);\n"
     "output-invariant, chosen by the worker",
     SLOT(options.threads), core::Options::kMinThreads,
     core::Options::kMaxThreads},
    {"max-jobs", kSize, "N",
     "concurrent coordinator connections (default 2);\n"
     "excess connections are refused",
     SLOT(max_jobs), 1, 1 << 10},
};

constexpr Flag kConnectFlags[] = {
    {"connect", kEndpoint, "ADDR",
     "host:port or unix:/path, as given to --listen", SLOT(endpoint)},
};

constexpr Flag kQueryFlags[] = {
    {.name = "strand", .kind = kText, .metavar = "S",
     .help = "plus, minus, or both (default: the server's)",
     .set = set_query_strand},
    {"retry", kInt, "N",
     "retry a BUSY refusal up to N times with capped\n"
     "exponential backoff (default 0 = fail fast)",
     SLOT(retry), 0, 1000},
    {"retry-backoff-ms", kInt, "M",
     "delay before the first retry (default\n"
     "100; doubles per attempt, capped at 5000)",
     SLOT(retry_backoff_ms), 1, 1 << 20},
};

#undef SLOT

/// One entry form of the binary.
struct Form {
  std::string_view name;  ///< argv[1]; empty for the flat compare form
  const char* intro;      ///< --help's usage lines and prose; $0 = program
  std::vector<Flag> flags;
  /// Positionals, required flags and rules across flags, checked once
  /// every flag parsed; false after printing the diagnostic.
  bool (*check)(const util::Args&, Config&, std::ostream&);
  int (*run)(const Config&, std::ostream& out, std::ostream& err);
  bool positionals = false;  ///< `check` takes positional arguments
};

std::vector<Flag> join(std::initializer_list<std::span<const Flag>> groups) {
  std::vector<Flag> flags;
  for (const std::span<const Flag> group : groups) {
    flags.insert(flags.end(), group.begin(), group.end());
  }
  return flags;
}

std::string replace_all(std::string text, std::string_view from,
                        std::string_view to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// A form's --help: its intro, then one entry per flag of the table.
void print_usage(std::ostream& os, const Form& form,
                 const std::string& program) {
  std::string text = std::string(form.intro) + "\noptions:\n";
  for (const Flag& flag : form.flags) {
    std::string head = std::string("  --") + flag.name;
    if (*flag.metavar != '\0') head += std::string(" ") + flag.metavar;
    // Help starts in column 18, on the next line under a long flag.
    head += head.size() < 18 ? std::string(18 - head.size(), ' ')
                             : "\n" + std::string(18, ' ');
    const std::string range =
        std::to_string(flag.lo) + ".." + std::to_string(flag.hi);
    text += head +
            replace_all(replace_all(flag.help, "{range}", range), "\n",
                        "\n" + std::string(18, ' ')) +
            '\n';
  }
  os << replace_all(std::move(text), "$0", program);
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

/// Parse a non-switch flag's value into its slot; false after printing
/// why it was rejected.
bool read_value(const util::Args& args, const Flag& flag, Config& c,
                std::ostream& err) {
  const std::string name = flag.name;
  const std::string raw = args.get(name);
  switch (flag.kind) {
    case kSwitch:
      break;
    case kInt:
    case kSize: {
      const std::optional<std::int64_t> v = args.get_int_strict(name);
      if (!v) {
        err << "error: --" << name << " expects an integer, got '" << raw
            << "'\n";
        return false;
      }
      if (const auto issue = core::check_range(name, *v, flag.lo, flag.hi)) {
        err << "error: " << issue->message << '\n';
        return false;
      }
      if (flag.kind == kInt) {
        *std::get<int*>(flag.slot(c)) = static_cast<int>(*v);
      } else {
        *std::get<std::size_t*>(flag.slot(c)) = static_cast<std::size_t>(*v);
      }
      break;
    }
    case kDouble: {
      const std::optional<double> v = args.get_double_strict(name);
      if (!v) {
        err << "error: --" << name << " expects a number, got '" << raw
            << "'\n";
        return false;
      }
      *std::get<double*>(flag.slot(c)) = *v;
      break;
    }
    case kText:
      *std::get<std::string*>(flag.slot(c)) = raw;
      break;
    case kEndpoint:
      try {
        *std::get<net::Endpoint*>(flag.slot(c)) = net::parse_endpoint(raw);
      } catch (const net::NetError& e) {
        err << "error: " << e.what() << '\n';
        return false;
      }
      break;
    case kEndpoints:
      return parse_worker_list(
          raw, *std::get<std::vector<net::Endpoint>*>(flag.slot(c)), err);
  }
  return true;
}

/// Parse argv (argv[0] is the program or the subcommand token) against
/// the form's flags; false after printing the first usage error.
bool parse_form(const Form& form, int argc, const char* const* argv,
                Config& c, std::ostream& err) {
  const util::Args args = util::Args::parse(argc, argv);
  for (const std::string& name : args.flag_names()) {
    if (std::none_of(form.flags.begin(), form.flags.end(),
                     [&name](const Flag& flag) { return name == flag.name; })) {
      err << "error: unknown flag --" << name << '\n';
      return false;
    }
  }

  // Args greedily binds `--flag token` even for switches, so `scoris
  // --stats a.fa b.fa` would silently swallow `a.fa`. Catch any value
  // that is not a boolean spelling and say what happened.
  for (const Flag& flag : form.flags) {
    if (flag.kind != kSwitch || !args.has(flag.name)) continue;
    const std::string raw = args.get(flag.name);
    if (raw != "true" && raw != "false" && raw != "1" && raw != "0" &&
        raw != "yes" && raw != "no") {
      err << "error: --" << flag.name << " does not take a value (got '"
          << raw << "'); place boolean flags after the banks or write --"
          << flag.name << "=true\n";
      return false;
    }
    if (flag.slot != nullptr) {
      *std::get<bool*>(flag.slot(c)) = args.get_flag(flag.name);
    }
  }
  if (c.help || c.version || c.kernel_probe) return true;

  if (!form.positionals && !args.positional().empty()) {
    err << "error: " << form.name << " takes no positional arguments, got '"
        << args.positional()[0] << "'\n";
    return false;
  }

  // Values are checked one by one and the first bad one stops the parse;
  // name spellings and the assembled Options are then reported together,
  // as Session's constructor would reject them.
  std::vector<core::OptionIssue> issues;
  for (const Flag& flag : form.flags) {
    if (flag.kind == kSwitch || !args.has(flag.name)) continue;
    if (flag.set != nullptr) {
      if (auto issue = flag.set(c, args.get(flag.name))) {
        issues.push_back(std::move(*issue));
      }
    } else if (!read_value(args, flag, c, err)) {
      return false;
    }
  }
  // --no-dust overrides --dust; Options holds the delivery budget in bytes.
  if (args.get_flag("no-dust")) c.options.dust = false;
  c.options.delivery_budget_bytes = c.delivery_budget_kb << 10;
  for (core::OptionIssue& issue : c.options.validate()) {
    issues.push_back(std::move(issue));
  }
  for (const core::OptionIssue& issue : issues) {
    err << "error: " << issue.message << '\n';
  }
  return issues.empty() && form.check(args, c, err);
}

bool require(bool present, const char* message, std::ostream& err) {
  if (!present) err << "error: " << message << '\n';
  return present;
}

bool check_compare(const util::Args& args, Config& c, std::ostream& err) {
  const auto& positional = args.positional();
  if (!positional.empty()) {
    if (!c.bank1_path.empty() || !c.bank2_path.empty()) {
      err << "error: unexpected positional argument '" << positional[0]
          << "' (banks already given via --bank1/--bank2)\n";
      return false;
    }
    if (positional.size() != 2) {
      err << "error: expected exactly two positional banks, got "
          << positional.size() << '\n';
      return false;
    }
    c.bank1_path = positional[0];
    c.bank2_path = positional[1];
  }
  return require(!c.bank1_path.empty() && !c.bank2_path.empty(),
                 "both --bank1 and --bank2 are required", err);
}

bool check_index(const util::Args& args, Config& c, std::ostream& err) {
  const auto& positional = args.positional();
  if (!positional.empty()) {
    if (!c.bank1_path.empty() || positional.size() != 1) {
      err << "error: expected exactly one bank (--bank FILE or one "
             "positional)\n";
      return false;
    }
    c.bank1_path = positional[0];
  }
  return require(!c.bank1_path.empty(), "--bank is required", err) &&
         require(!c.out_path.empty(), "--out is required", err);
}

bool check_search(const util::Args& /*args*/, Config& c, std::ostream& err) {
  if (!require(!c.index_path.empty() && !c.bank2_path.empty(),
               "both --index and --bank2 are required", err)) {
    return false;
  }
  // No artifact payload has a W above kMaxStoreW, so a larger one is a
  // usage error here — except under --asymmetric, where the effective
  // word length is 10.
  if (c.options.w > store::kMaxStoreW && !c.options.asymmetric) {
    err << "error: --w must be <= " << store::kMaxStoreW
        << " for search (.scix artifacts cap W at " << store::kMaxStoreW
        << ")\n";
    return false;
  }
  return true;
}

/// One search through the distributed coordinator (--workers given):
/// byte-identical m8, plan groups fanned out over the worker endpoints
/// plus this process.
SearchOutcome search_distributed(const Session& session,
                                 const seqio::SequenceBank& bank2,
                                 HitSink& sink, const SearchLimits& limits,
                                 const Config& config, std::ostream& err) {
  dist::DistConfig dcfg;
  dcfg.workers = config.workers;
  dcfg.connect_timeout_ms = config.worker_timeout_ms;
  dcfg.recv_timeout_ms = config.worker_timeout_ms;
  dcfg.dist_slices = config.dist_slices;
  // Workers that share a filesystem load the .scix themselves (the
  // `search` form); the coordinator inlines bank bytes only on the flat
  // compare form.
  dcfg.index_path = config.index_path;
  // Worker lifecycle events (connects, retries, abandoned workers) are
  // operational news the user should see; warn keeps the happy path
  // quiet.
  obs::Logger logger(err, obs::LogLevel::kWarn);
  dcfg.logger = &logger;
  return dist::run_distributed(session, bank2, sink, limits, dcfg);
}

/// The compare and `search` forms: one search of bank2 against the
/// reference, with m8 lines streaming to the sink as they become final.
int run_compare(const Config& config, std::ostream& out, std::ostream& err) {
  // `search` takes the reference from a .scix artifact.  Session's store
  // constructor enforces that a payload matches this search's effective
  // settings; anything else silently changes the seed set, so it throws
  // with a diagnostic listing the available payloads.
  std::optional<Session> session;
  seqio::SequenceBank bank2;
  try {
    if (config.index_path.empty()) {
      session.emplace(load_bank(config.bank1_path), config.options);
    } else {
      session.emplace(store::load_index(config.index_path), config.options);
    }
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
    limits.memory_budget_bytes = config.memory_budget_mb << 20;
    if (!config.trace_json_path.empty()) limits.trace = &trace;
    const SearchOutcome outcome =
        config.workers.empty()
            ? session->search(bank2, writer, limits)
            : search_distributed(*session, bank2, writer, limits, config, err);
    if (!flush_sink(config, *sink, err)) return kRuntimeError;
    if (!config.trace_json_path.empty()) {
      trace.write_chrome_json(config.trace_json_path);
    }
    if (config.stats) {
      if (config.memory_budget_mb > 0) {
        err << "scoris: streamed bank2 in " << outcome.slices
            << " slice(s) under a " << config.memory_budget_mb
            << " MB index budget\n";
      }
      print_stats(err, outcome.stats, outcome.stats.alignments);
    }
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

int run_index(const Config& config, std::ostream& /*out*/,
              std::ostream& err) {
  seqio::SequenceBank bank;
  try {
    bank = load_bank(config.bank1_path);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  // Stride-1 only: the .scix format holds subsampled payloads for the
  // library API, but `search` consumes stride 1 for the bank1 side.
  store::IndexKey key;
  key.w = config.options.w;
  key.dust = config.options.dust;
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

/// The running daemon's connection server (`scoris serve` or `scoris
/// worker`; one process runs at most one), reachable from the
/// SIGINT/SIGTERM handler.  ConnServer::request_stop is async-signal-safe
/// (one write(2)), so the handler body is too.
std::atomic<net::ConnServer*> g_daemon{nullptr};

extern "C" void daemon_signal_handler(int /*signo*/) {
  if (net::ConnServer* server = g_daemon.load(std::memory_order_acquire)) {
    server->request_stop();
  }
}

/// Scoped SIGINT/SIGTERM -> request_stop installation around serve().
class StopSignalScope {
 public:
  explicit StopSignalScope(net::ConnServer& server) {
    g_daemon.store(&server, std::memory_order_release);
    struct sigaction action {};
    action.sa_handler = &daemon_signal_handler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
  }
  ~StopSignalScope() {
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
    g_daemon.store(nullptr, std::memory_order_release);
  }
  StopSignalScope(const StopSignalScope&) = delete;
  StopSignalScope& operator=(const StopSignalScope&) = delete;

 private:
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
};

/// A daemon's structured logger: RFC3339 timestamps, levels, and
/// key=value fields, on `err` or the --log-file.  Diagnostics the CLI
/// emits before the logger exists stay plain "error:" lines on err;
/// false after such a line.
bool open_daemon_logger(const Config& config, std::ostream& err,
                        std::optional<obs::Logger>& logger) {
  try {
    if (!config.log_file.empty()) {
      logger.emplace(config.log_file, config.log_level);
    } else {
      logger.emplace(err, config.log_level);
    }
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return false;
  }
  return true;
}

/// Bind `daemon`, log the ready line CI and tests wait for (flushed by
/// the logger before the loop blocks, with the resolved endpoint, the
/// real port for TCP port-0 binds), and serve until SIGINT/SIGTERM.
template <typename Daemon>
void serve_until_signalled(Daemon& daemon, obs::Logger& logger,
                           const std::string& name,
                           const std::vector<obs::LogField>& fields) {
  daemon.bind();
  logger.info(name + ": listening on " + net::to_string(daemon.endpoint()),
              fields);
  StopSignalScope signals(daemon.connections());
  daemon.serve();
}

int run_serve(const Config& config, std::ostream& /*out*/,
              std::ostream& err) {
  std::optional<obs::Logger> logger;
  if (!open_daemon_logger(config, err, logger)) return kRuntimeError;

  std::optional<Session> session;
  try {
    session.emplace(Session::open(config.index_path, config.options));
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }

  daemon::ServerConfig server_config;
  server_config.endpoint = config.endpoint;
  server_config.backlog = config.backlog;
  server_config.max_clients = config.max_clients;
  server_config.base_limits.memory_budget_bytes = config.memory_budget_mb
                                                  << 20;
  server_config.logger = &*logger;

  try {
    daemon::Server server(*session, server_config);
    serve_until_signalled(
        server, *logger, "scoris serve",
        {obs::kv("max_clients",
                 static_cast<unsigned long long>(config.max_clients)),
         obs::kv("threads", config.options.threads)});
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

int run_query(const Config& config, std::ostream& out, std::ostream& err) {
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

  std::ofstream out_file;
  std::ostream* sink = nullptr;
  if (!open_sink(config, out, out_file, sink, err)) return kRuntimeError;

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
    const net::QueryResult result = client->query(
        fasta, config.query_strand, [&](std::string_view rows) {
          sink->write(rows.data(),
                      static_cast<std::streamsize>(rows.size()));
          if (!*sink) {
            throw SinkError("m8 output stream failed (disk full?)");
          }
        });
    if (!result.ok) {
      // The server may have streamed rows before failing.
      discard_partial_output(config, out_file);
      err << "error: server: " << result.error << '\n';
      return kRuntimeError;
    }
    if (!flush_sink(config, *sink, err)) return kRuntimeError;
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
    discard_partial_output(config, out_file);
    err << "error: " << e.what() << '\n';
    return kRuntimeError;
  }
  return kOk;
}

int run_worker(const Config& config, std::ostream& /*out*/,
               std::ostream& err) {
  std::optional<obs::Logger> logger;
  if (!open_daemon_logger(config, err, logger)) return kRuntimeError;

  dist::WorkerConfig worker_config;
  worker_config.endpoint = config.endpoint;
  worker_config.backlog = config.backlog;
  worker_config.threads = config.options.threads;
  worker_config.max_jobs = config.max_jobs;
  worker_config.logger = &*logger;

  try {
    dist::Worker worker(worker_config);
    serve_until_signalled(
        worker, *logger, "scoris worker",
        {obs::kv("max_jobs", static_cast<unsigned long long>(config.max_jobs)),
         obs::kv("threads", config.options.threads)});
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

int run_stats(const Config& config, std::ostream& out, std::ostream& err) {
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

constexpr const char* kCompareIntro =
    R"(usage: $0 --bank1 <a.fa> --bank2 <b.fa> [options]
       $0 <a.fa> <b.fa> [options]
       $0 index --bank <ref.fa> --out <ref.scix>
       $0 search --index <ref.scix> --bank2 <b.fa> [options]
       $0 serve --index <ref.scix> --listen <addr>
       $0 query --connect <addr> --bank2 <b.fa>
       $0 stats --connect <addr>
       $0 worker --listen <addr>

Compare two DNA banks with the ORIS pipeline and write BLAST -m 8
tabular output. Banks are FASTA files (or binary .scob banks);
`index`/`search` prebuild and reuse a .scix bank+index artifact
(see `$0 index --help`).
)";

constexpr const char* kIndexIntro =
    R"(usage: $0 index --bank <ref.fa> --out <ref.scix> [options]

Build a persistent .scix artifact: the bank (2-bit packed) plus a
precomputed seed index, loadable by `$0 search` without
re-parsing FASTA or re-scanning a single sequence.
)";

constexpr const char* kSearchIntro =
    R"(usage: $0 search --index <ref.scix> --bank2 <b.fa> [options]

Compare a prebuilt .scix artifact (the bank1/query side) against a
FASTA/.scob bank. Output is byte-identical to the flat invocation
on the artifact's source FASTA when the settings match: --w and
--dust must match a payload of the artifact (`$0 index --help`
gives its W range), and --asymmetric needs a w=10 payload. With
--workers, each worker loads the .scix from its own filesystem
(shared path required).
)";

constexpr const char* kServeIntro =
    R"(usage: $0 serve --index <ref.scix> --listen <addr> [options]

Run the scorisd daemon: prepare the reference once, then answer
FASTA queries from concurrent network clients over one shared
immutable session (see docs/API.md for the wire protocol); the
session options are those of `$0 search`, and the memory budgets
apply per query. Prints `listening on <addr>` to stderr when ready;
SIGINT or SIGTERM drains in-flight queries and exits 0.
)";

constexpr const char* kQueryIntro =
    R"(usage: $0 query --connect <addr> --bank2 <b.fa> [options]

Send one bank to a running `$0 serve` daemon and stream the
m8 result to stdout (or --out). Exits 1 if the server is busy,
unreachable, or reports a query error.
)";

constexpr const char* kStatsIntro = R"(usage: $0 stats --connect <addr>

Fetch a live metrics snapshot from a running `$0 serve`
daemon and print it to stdout in Prometheus text exposition
format (see docs/OBSERVABILITY.md for the metric inventory).
Requires a protocol-v2 server. Exits 1 if the server is busy,
unreachable, or too old to answer STAT frames.
)";

constexpr const char* kWorkerIntro =
    R"(usage: $0 worker --listen <addr> [options]

Run a distributed shard worker: wait for a coordinator (`$0`
with --workers), receive the reference + query bank + options,
execute assigned plan groups through the local engine, and stream
each sorted run back over the connection (docs/API.md, worker
protocol v1). Prints `listening on <addr>` when ready; SIGINT or
SIGTERM drains in-flight groups and exits 0.
)";

/// The seven forms; the first, the flat compare form, also catches an
/// argv[1] that names no subcommand.
const std::vector<Form>& forms() {
  static const std::vector<Form> kForms = {
      {"", kCompareIntro,
       join({kCompareFlags, kOutputFlags, kSearchFlags, kRunFlags,
             kProbeFlags, kHelpFlags}),
       check_compare, run_compare, /*positionals=*/true},
      {"index", kIndexIntro, join({kIndexFlags, kHelpFlags}), check_index,
       run_index, /*positionals=*/true},
      {"search", kSearchIntro,
       join({kArtifactFlags, kOutputFlags, kSearchFlags, kRunFlags,
             kHelpFlags}),
       check_search, run_compare},
      {"serve", kServeIntro,
       join({kServeFlags, kDaemonFlags, kSearchFlags, kHelpFlags}),
       [](const util::Args& args, Config& c, std::ostream& err) {
         return require(!c.index_path.empty() && args.has("listen"),
                        "both --index and --listen are required", err);
       },
       run_serve},
      {"query", kQueryIntro,
       join({kConnectFlags, kOutputFlags, kQueryFlags, kHelpFlags}),
       [](const util::Args& args, Config& c, std::ostream& err) {
         return require(args.has("connect") && !c.bank2_path.empty(),
                        "both --connect and --bank2 are required", err);
       },
       run_query},
      {"stats", kStatsIntro, join({kConnectFlags, kHelpFlags}),
       [](const util::Args& args, Config&, std::ostream& err) {
         return require(args.has("connect"), "--connect is required", err);
       },
       run_stats},
      {"worker", kWorkerIntro, join({kDaemonFlags, kWorkerFlags, kHelpFlags}),
       [](const util::Args& args, Config&, std::ostream& err) {
         return require(args.has("listen"), "--listen is required", err);
       },
       run_worker},
  };
  return kForms;
}

}  // namespace

bool parse_cli(int argc, const char* const* argv, CliConfig& config,
               std::ostream& err) {
  Config parsed;
  const bool ok = parse_form(forms().front(), argc, argv, parsed, err);
  config = parsed;
  return ok;
}

int run(int argc, const char* const* argv, std::ostream& out,
        std::ostream& err) {
  // Every entry form may write to a pipe the reader has closed (stdout
  // into `head`, a query client that died); fail those writes with
  // EPIPE -> SinkError -> exit 1 instead of dying on SIGPIPE.
  net::ignore_sigpipe();
  const std::string program = argc > 0 ? argv[0] : "scoris";
  const std::string_view subcommand = argc > 1 ? argv[1] : "";
  const std::vector<Form>& all = forms();
  const auto named =
      std::find_if(all.begin() + 1, all.end(),
                   [&](const Form& f) { return f.name == subcommand; });
  const Form& form = named == all.end() ? all.front() : *named;
  // A subcommand's argv starts at its own token.
  const int skip = named == all.end() ? 0 : 1;

  Config config;
  if (!parse_form(form, argc - skip, argv + skip, config, err)) {
    print_usage(err, form, program);
    return kUsage;
  }
  if (config.help) {
    print_usage(out, form, program);
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
  return form.run(config, out, err);
}

}  // namespace scoris::cli
