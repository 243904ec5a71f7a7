// perfbench_driver — the benchmark's own process around the scoris
// library.  perfbench/run.py spawns it; every subcommand prints one JSON
// object on stdout.
//
//   info                    build fingerprint (build type, compiler, kernel)
//   gen                     write a workload's synthetic FASTA inputs
//   batch                   one end-to-end comparison through the public
//                           API: FASTA -> Session -> search (or
//                           dist::run_distributed) -> m8 file
//   load                    closed-loop query traffic against `scoris
//                           serve` over net::QueryClient connections
//   trace                   the traced run: replay a workload by calling
//                           each layer's public functions in pipeline
//                           order, with a span around every call
//
// Times come from std::chrono::steady_clock, which is CLOCK_MONOTONIC on
// Linux — the clock behind Python's time.monotonic(), so run.py can hand
// a spawn instant to `load --spawned-at`.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "align/simd/kernel_dispatch.hpp"
#include "api/session.hpp"
#include "api/sinks.hpp"
#include "compare/m8.hpp"
#include "core/chunked.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/run_merge.hpp"
#include "core/gapped_stage.hpp"
#include "core/ordered_extend.hpp"
#include "dist/coordinator.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "net/client.hpp"
#include "net/socket.hpp"
#include "seqio/fasta.hpp"
#include "seqio/strand.hpp"
#include "simulate/paper_datasets.hpp"
#include "stats/karlin.hpp"
#include "store/index_store.hpp"
#include "util/threading.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace scoris;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// ---- command line -----------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --flag value, got '" + arg +
                                    "'");
      }
      values_[arg.substr(2)] = argv[++i];
    }
  }
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const {
    const auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    if (fallback.empty()) {
      throw std::invalid_argument("missing --" + name);
    }
    return fallback;
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] long num(const std::string& name, long fallback) const {
    return has(name) ? std::stol(get(name)) : fallback;
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- one-line JSON objects ------------------------------------------------

class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& add(const std::string& key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    return raw(key, quote(v));
  }
  JsonObject& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonObject& add(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
        continue;
      }
      out += c;
    }
    return out + "\"";
  }
  std::string body_;
};

// ---- digests ----------------------------------------------------------------

/// FNV-1a 64 over a byte stream (per-query row digests; run.py hashes
/// whole m8 files with SHA-256 itself).
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// HitSink that renders m8 lines into a digest (the same conversion as
/// M8Writer) without keeping them.
class DigestSink final : public HitSink {
 public:
  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& batch) override {
    for (const align::GappedAlignment& a : hits) {
      const std::string line =
          compare::format_m8(compare::to_m8(a, *batch.bank1, *batch.bank2)) +
          "\n";
      digest.update(line);
      ++rows;
    }
  }
  Fnv64 digest;
  std::size_t rows = 0;
};

/// A string-valued map as a JSON object ({"<key>": "<value>", ...}).
template <typename Key>
std::string json_map(const std::map<Key, std::string>& map) {
  std::string s = "{";
  for (const auto& [key, value] : map) {
    if constexpr (std::is_same_v<Key, std::string>) {
      s += (s.size() > 1 ? ",\"" : "\"") + key;
    } else {
      s += (s.size() > 1 ? ",\"" : "\"") + std::to_string(key);
    }
    s += "\":\"" + value + "\"";
  }
  return s + "}";
}

// ---- options shared by every subcommand ------------------------------------

Options workload_options(const Flags& flags) {
  Options options;
  options.threads = static_cast<int>(flags.num("threads", 1));
  if (const auto issue =
          core::set_strand(options, flags.get("strand", "plus"))) {
    throw std::invalid_argument(issue->message);
  }
  options.validate_or_throw();
  return options;
}

std::vector<net::Endpoint> parse_workers(const Flags& flags) {
  std::vector<net::Endpoint> workers;
  if (!flags.has("workers")) return workers;
  std::stringstream list(flags.get("workers"));
  std::string spec;
  while (std::getline(list, spec, ',')) {
    workers.push_back(net::parse_endpoint(spec));
  }
  return workers;
}

dist::DistConfig dist_config(const Flags& flags) {
  dist::DistConfig config;
  config.workers = parse_workers(flags);
  config.dist_slices = static_cast<std::size_t>(flags.num("dist-slices", 0));
  return config;
}

/// Single-sequence FASTA documents, one per sequence of `bank` (the
/// query payloads of the query_stream workload).
std::vector<std::string> split_fasta(const seqio::SequenceBank& bank) {
  std::vector<std::string> docs;
  docs.reserve(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    std::ostringstream os;
    seqio::write_fasta(os, core::slice_bank(bank, i, i + 1));
    docs.push_back(os.str());
  }
  return docs;
}

// ---- info / gen -------------------------------------------------------------

int cmd_info() {
  JsonObject out;
  out.add("build_type", PERFBENCH_BUILD_TYPE)
      .add("compiler", PERFBENCH_COMPILER)
      .add("kernel", align::simd::dispatch().name);
  std::cout << out.str() << "\n";
  return 0;
}

/// Inputs per data set (see run.py's WORKLOADS for which workload uses
/// which): the paper banks from simulate::PaperData(scale, seed).
int cmd_gen(const Flags& flags) {
  const std::string data = flags.get("data");
  const auto seed = static_cast<std::uint64_t>(std::stoull(flags.get("seed")));
  const std::filesystem::path dir = flags.get("dir");
  std::filesystem::create_directories(dir);
  JsonObject out;
  const auto emit = [&](const simulate::PaperData& paper,
                        const std::string& bank, const std::string& file) {
    const seqio::SequenceBank b = paper.make(bank);
    seqio::write_fasta_file((dir / file).string(), b);
    out.add(file + ".sequences", b.size());
    out.add(file + ".bases", b.total_bases());
  };
  if (data == "est") {
    const simulate::PaperData paper(0.1, seed);
    emit(paper, "EST5", "bank1.fa");
    emit(paper, "EST7", "bank2.fa");
  } else if (data == "genome") {
    const simulate::PaperData paper(0.1, seed);
    emit(paper, "H19", "bank1.fa");
    emit(paper, "BCT", "bank2.fa");
  } else if (data == "stream") {
    // The reference is EST5 at scale 0.2; the queries are a fixed,
    // evenly spaced sample of EST7 sequences from the same universe.
    const simulate::PaperData paper(0.2, seed);
    emit(paper, "EST5", "ref.fa");
    const seqio::SequenceBank est7 = paper.make("EST7");
    const auto count = static_cast<std::size_t>(flags.num("queries", 64));
    seqio::SequenceBank queries;
    const std::size_t step = std::max<std::size_t>(1, est7.size() / count);
    for (std::size_t i = 0; i < est7.size() && queries.size() < count;
         i += step) {
      queries.add(est7.seq_name(i), est7.bases(i));
    }
    seqio::write_fasta_file((dir / "queries.fa").string(), queries);
    out.add("queries.fa.sequences", queries.size());
    out.add("queries.fa.bases", queries.total_bases());
  } else {
    throw std::invalid_argument("unknown --data " + data);
  }
  std::cout << out.str() << "\n";
  return 0;
}

// ---- batch ------------------------------------------------------------------

void add_counters(JsonObject& out, const core::PipelineStats& st) {
  out.add("hit_pairs", st.hit_pairs)
      .add("order_aborts", st.order_aborts)
      .add("hsps", st.hsps)
      .add("gapped_extensions", st.gapped.gapped_extensions)
      .add("alignments", st.alignments);
}

/// One comparison as a user of the library runs it.  setup_s covers the
/// FASTA reads and Session construction (the bank-1 index); wall_s runs
/// from the first read to the m8 file closed.
int cmd_batch(const Flags& flags) {
  const double t0 = now_s();
  seqio::SequenceBank bank1 = seqio::read_fasta_file(flags.get("bank1"));
  const seqio::SequenceBank bank2 = seqio::read_fasta_file(flags.get("bank2"));
  const Session session(std::move(bank1), workload_options(flags));
  const double setup = now_s() - t0;

  JsonObject out;
  out.add("setup_s", setup);
  if (flags.has("out")) {
    const dist::DistConfig config = dist_config(flags);
    std::ofstream m8(flags.get("out"), std::ios::binary | std::ios::trunc);
    if (!m8) throw std::runtime_error("cannot write " + flags.get("out"));
    M8Writer sink(m8);
    const double t1 = now_s();
    const SearchOutcome outcome =
        config.workers.empty()
            ? session.search(bank2, sink)
            : dist::run_distributed(session, bank2, sink, {}, config);
    m8.close();
    if (!m8) throw std::runtime_error("failed writing " + flags.get("out"));
    const double t2 = now_s();
    out.add("search_s", t2 - t1)
        .add("wall_s", t2 - t0)
        .add("queries", bank2.size());
    add_counters(out, outcome.stats);
  }
  std::cout << out.str() << "\n";
  return 0;
}

// ---- load -------------------------------------------------------------------

struct QuerySample {
  std::size_t query = 0;
  double latency_s = 0.0;
  std::string answer;  ///< "<m8 digest>:<rows>"
};

/// Closed loop: each connection sends its next query only after the
/// previous one's DONE, cycling through the fixed query set from query
/// --start, until the deadline.  setup_s is the time from --spawned-at
/// (the instant run.py spawned the server) to the first HELO.
int cmd_load(const Flags& flags) {
  const net::Endpoint ep = net::parse_endpoint(flags.get("connect"));
  const double spawned_at = std::stod(flags.get("spawned-at"));
  const auto connections =
      static_cast<std::size_t>(flags.num("connections", 2));
  const double seconds = std::stod(flags.get("seconds"));
  const std::vector<std::string> queries =
      split_fasta(seqio::read_fasta_file(flags.get("queries")));
  if (queries.empty()) throw std::invalid_argument("empty query set");

  // Wait for the server's first HELO (bounded; run.py also times out).
  std::optional<net::QueryClient> first;
  while (!first) {
    try {
      first.emplace(net::QueryClient::connect(ep));
    } catch (const net::NetError&) {
      if (now_s() - spawned_at > 60.0) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  const double setup = now_s() - spawned_at;

  std::mutex mu;
  std::vector<QuerySample> samples;
  std::size_t failed = 0;
  std::size_t busy = 0;
  std::atomic<std::size_t> next{
      static_cast<std::size_t>(flags.num("start", 0))};
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  const auto run_connection = [&](std::optional<net::QueryClient> client) {
    std::vector<QuerySample> local;
    std::size_t local_failed = 0;
    std::size_t local_busy = 0;
    while (now_s() < deadline) {
      try {
        if (!client) client.emplace(net::QueryClient::connect(ep));
        QuerySample s;
        s.query = next.fetch_add(1) % queries.size();
        Fnv64 digest;
        const double q0 = now_s();
        const net::QueryResult r = client->query(
            queries[s.query], net::QueryStrand::kDefault,
            [&](std::string_view rows) { digest.update(rows); });
        s.latency_s = now_s() - q0;
        if (!r.ok) {
          ++local_failed;
          continue;
        }
        s.answer = digest.hex() + ":" + std::to_string(r.alignments);
        local.push_back(std::move(s));
      } catch (const net::ServerBusy&) {
        ++local_busy;
        ++local_failed;
        client.reset();
      } catch (const std::exception&) {
        // A dropped connection or a protocol error: count it and redial.
        ++local_failed;
        client.reset();
      }
    }
    const std::lock_guard<std::mutex> lock(mu);
    samples.insert(samples.end(), local.begin(), local.end());
    failed += local_failed;
    busy += local_busy;
  };
  std::vector<std::thread> threads;
  threads.emplace_back(run_connection, std::move(first));
  for (std::size_t c = 1; c < connections; ++c) {
    threads.emplace_back(run_connection, std::nullopt);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = now_s() - t0;

  // Every answer to one query must be identical.
  std::map<std::size_t, std::string> answers;
  std::size_t inconsistent = 0;
  std::vector<double> latency;
  for (const QuerySample& s : samples) {
    const auto [it, fresh] = answers.emplace(s.query, s.answer);
    if (!fresh && it->second != s.answer) ++inconsistent;
    latency.push_back(s.latency_s);
  }

  JsonObject out;
  out.add("setup_s", setup)
      .add("elapsed_s", elapsed)
      .add("completed", samples.size())
      .add("failed", failed)
      .add("busy", busy)
      .add("inconsistent", inconsistent)
      .add("latency_s", latency)
      .raw("digests", json_map(answers));
  std::cout << out.str() << "\n";
  return 0;
}

// ---- trace ------------------------------------------------------------------

/// In-memory spans around calls into the layers.  Spans nest on the
/// calling thread; a span's self time is its duration minus the time its
/// child spans cover.  Parallel step-2 shards are timed separately
/// (shard_seconds) and are not children: they overlap each other.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      id_ = tracer_.spans_.size();
      tracer_.spans_.push_back(
          {std::move(name), tracer_.open_, now_s(), 0.0});
      tracer_.open_ = static_cast<long>(id_);
    }
    ~Scope() {
      tracer_.spans_[id_].end = now_s();
      tracer_.open_ = tracer_.spans_[id_].parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t id_ = 0;
  };

  /// Self seconds summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    }
    return out;
  }
  /// Wall seconds of the spans with this name.
  [[nodiscard]] double total(const std::string& name) const {
    double t = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) t += s.end - s.start;
    }
    return t;
  }

  void count(const std::string& name, std::size_t n) {
    counts[name] += static_cast<double>(n);
  }
  void peak(const std::string& name, double value) {
    counts[name] = std::max(counts[name], value);
  }

  std::map<std::string, double> counts;
  std::vector<double> shard_seconds;

 private:
  struct Span {
    std::string name;
    long parent = -1;
    double start = 0.0;
    double end = 0.0;
  };
  std::vector<Span> spans_;
  long open_ = -1;
};

/// Collects the merged stream of RunMerger::merge.
class VectorSink final : public HitSink {
 public:
  void on_group(std::span<const align::GappedAlignment> hits,
                const HitBatch& /*batch*/) override {
    alignments.insert(alignments.end(), hits.begin(), hits.end());
  }
  std::vector<align::GappedAlignment> alignments;
};

/// The pipeline of core/exec/engine.cpp replayed layer by layer: bank-1
/// DUST + index (unless `prebuilt1`), the plan, then per (strand x
/// slice) group the subject bank, its DUST mask and index, the step-2
/// shards, the gapped stage, and for multi-group plans the run merge.
std::vector<align::GappedAlignment> replay_compare(
    Tracer& tr, const seqio::SequenceBank& bank1,
    const index::BankIndex* prebuilt1, const seqio::SequenceBank& bank2,
    const Options& options, const std::vector<core::exec::SliceRange>& slices) {
  const index::SeedCoder coder(options.effective_w());
  filter::MaskBitmap mask1;
  std::optional<index::BankIndex> own1;
  if (prebuilt1 == nullptr) {
    index::IndexOptions iopt1;
    if (options.dust) {
      const Tracer::Scope span(tr, "filter.dust_s");
      mask1 = filter::dust_mask(bank1, options.dust_params);
      iopt1.mask = &mask1;
    }
    {
      const Tracer::Scope span(tr, "index.build1_s");
      own1.emplace(bank1, coder, iopt1);
    }
    tr.count("filter.masked_bases", own1->masked_bases());
  }
  const index::BankIndex& idx1 = prebuilt1 ? *prebuilt1 : *own1;
  const auto resident = [](const index::BankIndex& idx) {
    return static_cast<double>(idx.dictionary_bytes() + idx.chain_bytes() +
                               idx.occurrence_bytes());
  };
  double peak_resident2 = 0.0;
  double peak_paper2 = 0.0;

  core::exec::ExecutionPlan plan;
  {
    const Tracer::Scope span(tr, "exec.plan_s");
    core::exec::PlanRequest preq;
    preq.strand = options.strand;
    preq.slices = slices;
    preq.bank2_size = bank2.size();
    preq.threads = options.threads;
    preq.shards = options.shards;
    preq.schedule = options.schedule;
    plan = core::exec::compile_plan(idx1, preq);
  }
  core::SeedScanParams scan_params;
  scan_params.scoring = options.scoring;
  scan_params.min_hsp_score = options.min_hsp_score;
  scan_params.enforce_order = options.enforce_order;
  scan_params.kernel = &align::simd::select(options.force_scalar_kernel);
  const stats::KarlinParams karlin = stats::karlin_match_mismatch(
      options.scoring.match, options.scoring.mismatch);

  std::vector<std::vector<align::GappedAlignment>> runs;
  for (const core::exec::ShardGroup& group : plan.groups) {
    const bool whole = group.slice.from == 0 && group.slice.to == bank2.size();
    std::optional<seqio::SequenceBank> subject_store;
    {
      const Tracer::Scope span(tr, "seqio.subject_s");
      if (!whole) {
        subject_store =
            core::slice_bank(bank2, group.slice.from, group.slice.to);
      }
      if (group.minus) {
        subject_store =
            seqio::reverse_complement(whole ? bank2 : *subject_store);
      }
    }
    const seqio::SequenceBank& subject = subject_store ? *subject_store : bank2;

    filter::MaskBitmap mask2;
    index::IndexOptions iopt2;
    if (options.dust) {
      const Tracer::Scope span(tr, "filter.dust_s");
      mask2 = filter::dust_mask(subject, options.dust_params);
      iopt2.mask = &mask2;
    }
    if (options.asymmetric) iopt2.stride = 2;
    std::optional<index::BankIndex> idx2;
    {
      const Tracer::Scope span(tr, "index.build2_s");
      idx2.emplace(subject, coder, iopt2);
    }
    tr.count("filter.masked_bases", idx2->masked_bases());
    peak_resident2 = std::max(peak_resident2, resident(*idx2));
    peak_paper2 =
        std::max(peak_paper2, static_cast<double>(idx2->memory_bytes()));

    std::vector<align::Hsp> hsps;
    {
      const Tracer::Scope span(tr, "scan.s");
      std::vector<core::SeedScanResult> partials(group.shard_count);
      std::vector<double> seconds(group.shard_count, 0.0);
      util::run_tasks(group.shard_count,
                      static_cast<std::size_t>(plan.threads), plan.schedule,
                      [&](std::size_t s) {
                        const core::exec::Shard& shard =
                            plan.shards[group.first_shard + s];
                        const double t0 = now_s();
                        core::scan_seed_range(idx1, *idx2, scan_params,
                                              shard.codes.lo, shard.codes.hi,
                                              partials[s]);
                        seconds[s] = now_s() - t0;
                      });
      for (core::SeedScanResult& p : partials) {
        tr.count("scan.hit_pairs", p.hit_pairs);
        tr.count("scan.order_aborts", p.order_aborts);
        hsps.insert(hsps.end(), p.hsps.begin(), p.hsps.end());
      }
      tr.count("scan.hsps", hsps.size());
      tr.shard_seconds.insert(tr.shard_seconds.end(), seconds.begin(),
                              seconds.end());
    }

    std::vector<align::GappedAlignment> alignments;
    {
      const Tracer::Scope span(tr, "gapped.s");
      core::GappedStageOptions gopt;
      gopt.scoring = options.scoring;
      gopt.max_evalue = options.max_evalue;
      gopt.max_gap_extent = options.max_gap_extent;
      gopt.threads = options.threads;
      core::GappedStageStats gstats;
      alignments =
          core::gapped_stage(hsps, bank1, subject, karlin, gopt, &gstats);
      tr.count("gapped.hsps_in", gstats.hsps_in);
      tr.count("gapped.skipped_contained", gstats.skipped_contained);
      tr.count("gapped.extensions", gstats.gapped_extensions);
      tr.count("gapped.below_cutoff", gstats.below_cutoff);
    }
    // Back to bank2 ids and global positions (engine.cpp's remap).
    for (align::GappedAlignment& a : alignments) {
      if (group.minus) a.minus = true;
      if (!whole) {
        const std::size_t orig = a.seq2 + group.slice.from;
        const seqio::Pos delta_src = subject.offset(a.seq2);
        const seqio::Pos delta_dst = bank2.offset(orig);
        a.seq2 = static_cast<std::uint32_t>(orig);
        a.s2 = a.s2 - delta_src + delta_dst;
        a.e2 = a.e2 - delta_src + delta_dst;
      }
    }
    runs.push_back(std::move(alignments));
  }
  // Peaks, not sums: a query_stream trace replays one comparison per query.
  tr.peak("index.resident_bytes", resident(idx1) + peak_resident2);
  tr.peak("index.paper_bytes",
          static_cast<double>(idx1.memory_bytes()) + peak_paper2);

  if (runs.size() == 1) {
    // A lone group streams as it finishes: its run is the delivery peak.
    tr.peak("exec.peak_delivery_bytes",
            static_cast<double>(runs.front().size() *
                                sizeof(align::GappedAlignment)));
    return std::move(runs.front());
  }
  VectorSink merged;
  {
    const Tracer::Scope span(tr, "exec.merge_s");
    core::exec::RunMergeConfig mcfg;
    mcfg.budget_bytes = options.delivery_budget_bytes;
    mcfg.tmp_dir = options.tmp_dir;
    core::exec::RunMerger merger(std::move(mcfg), runs.size());
    for (auto& run : runs) merger.add_run(std::move(run));
    HitBatch batch;
    batch.bank1 = &bank1;
    batch.bank2 = &bank2;
    (void)merger.merge(merged, batch);
    const core::exec::MergeStats& ms = merger.stats();
    tr.count("exec.spilled_runs", ms.spilled_runs);
    tr.count("exec.spill_bytes", ms.spill_bytes);
    tr.peak("exec.peak_delivery_bytes",
            static_cast<double>(ms.peak_delivery_bytes));
  }
  return std::move(merged.alignments);
}

/// compare::to_m8 + format_m8 over the alignments, written to `os` and
/// into `digest`.
void write_m8(Tracer& tr, std::ostream& os,
              const std::vector<align::GappedAlignment>& alignments,
              const seqio::SequenceBank& bank1,
              const seqio::SequenceBank& bank2, Fnv64& digest) {
  const Tracer::Scope span(tr, "compare.m8_s");
  std::size_t bytes = 0;
  for (const align::GappedAlignment& a : alignments) {
    const std::string line =
        compare::format_m8(compare::to_m8(a, bank1, bank2)) + "\n";
    os << line;
    digest.update(line);
    bytes += line.size();
  }
  tr.count("compare.m8_rows", alignments.size());
  tr.count("compare.m8_bytes", bytes);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The traced run's output: every span name's self time, the counts,
/// shard spread and yields, plus whatever the caller adds.
JsonObject layer_report(const Tracer& tr) {
  JsonObject out;
  for (const auto& [name, seconds] : tr.self_seconds()) out.add(name, seconds);
  std::map<std::string, double> counts = tr.counts;
  const auto ratio = [&](const std::string& num, const std::string& den) {
    return counts[den] > 0 ? counts[num] / counts[den] : 0.0;
  };
  counts["scan.yield"] = ratio("scan.hsps", "scan.hit_pairs");
  counts["gapped.yield"] = ratio("compare.m8_rows", "gapped.extensions");
  if (!tr.shard_seconds.empty()) {
    counts["scan.shard_max_s"] =
        *std::max_element(tr.shard_seconds.begin(), tr.shard_seconds.end());
    counts["scan.shard_median_s"] = median(tr.shard_seconds);
  }
  for (const auto& [name, value] : counts) out.add(name, value);
  return out;
}

/// Traced batch workload: read both banks, replay the comparison, write
/// the m8 file.  With --workers, also time Session construction, an
/// in-process Session::search and dist::run_distributed on the same
/// inputs; all m8 streams are digested and must be equal.
int trace_batch(const Flags& flags) {
  const Options options = workload_options(flags);
  const dist::DistConfig config = dist_config(flags);
  Tracer tr;
  std::map<std::string, std::string> digests;
  double replay_wall = 0.0;
  {
    const Tracer::Scope root(tr, "unattributed_s");
    const double t0 = now_s();
    std::optional<seqio::SequenceBank> bank1;
    std::optional<seqio::SequenceBank> bank2;
    {
      const Tracer::Scope span(tr, "seqio.read_s");
      bank1.emplace(seqio::read_fasta_file(flags.get("bank1")));
      bank2.emplace(seqio::read_fasta_file(flags.get("bank2")));
    }
    std::vector<core::exec::SliceRange> slices;
    if (!config.workers.empty()) {
      // The coordinator's cut (dist/coordinator.cpp): unbounded memory
      // budget, so the reference size never enters it, and at least
      // --dist-slices slices.
      const Tracer::Scope span(tr, "exec.plan_s");
      core::ChunkedOptions copt;
      copt.pipeline = options;
      copt.memory_budget_bytes = ~std::size_t{0};
      copt.min_chunks = config.dist_slices;
      slices = core::plan_budget_slices(0, *bank2, copt);
    }
    const std::vector<align::GappedAlignment> alignments =
        replay_compare(tr, *bank1, nullptr, *bank2, options, slices);
    Fnv64 replay;
    {
      std::ofstream m8(flags.get("out"), std::ios::binary | std::ios::trunc);
      write_m8(tr, m8, alignments, *bank1, *bank2, replay);
      m8.close();
      if (!m8) throw std::runtime_error("failed writing " + flags.get("out"));
    }
    replay_wall = now_s() - t0;
    digests["replay"] = replay.hex();

    if (!config.workers.empty()) {
      std::optional<Session> session;
      {
        const Tracer::Scope span(tr, "api.build_s");
        session.emplace(seqio::SequenceBank(*bank1), options);
      }
      DigestSink local;
      {
        const Tracer::Scope span(tr, "api.search_s");
        (void)session->search(*bank2, local);
      }
      DigestSink remote;
      {
        const Tracer::Scope span(tr, "dist.run_s");
        (void)dist::run_distributed(*session, *bank2, remote, {}, config);
      }
      digests["session"] = local.digest.hex();
      digests["distributed"] = remote.digest.hex();
      tr.counts["dist.overhead_s"] =
          tr.total("dist.run_s") - tr.total("api.search_s");
    }
  }
  JsonObject out = layer_report(tr);
  out.add("replay_wall_s", replay_wall).raw("digests", json_map(digests));
  std::cout << out.str() << "\n";
  return 0;
}

/// Traced query_stream: the store round trip (write, load, adopt), then
/// for each of the first --count queries Session::search, the layer
/// replay against the adopted reference index, and the same query over
/// net::QueryClient to the running `scoris serve`.
int trace_stream(const Flags& flags) {
  const Options options = workload_options(flags);
  const auto count = static_cast<std::size_t>(flags.num("count", 16));
  Tracer tr;
  std::map<std::size_t, std::string> replay_answers;
  std::map<std::size_t, std::string> session_answers;
  std::map<std::size_t, std::string> net_answers;
  std::vector<double> server_ms;
  std::vector<double> overhead_ms;
  double replay_minus_search = 0.0;
  std::string stats_text;
  {
    const Tracer::Scope root(tr, "unattributed_s");
    std::optional<seqio::SequenceBank> ref;
    std::vector<std::string> docs;
    {
      const Tracer::Scope span(tr, "seqio.read_s");
      ref.emplace(seqio::read_fasta_file(flags.get("ref")));
      docs = split_fasta(seqio::read_fasta_file(flags.get("queries")));
    }
    store::IndexKey key;
    key.w = options.effective_w();
    key.dust = options.dust;
    key.dust_params = options.dust_params;
    {
      const Tracer::Scope span(tr, "store.write_s");
      store::write_index_file(flags.get("store-out"), *ref, {&key, 1});
    }
    tr.counts["store.file_bytes"] = static_cast<double>(
        std::filesystem::file_size(flags.get("store-out")));
    std::optional<store::IndexStore> loaded;
    {
      const Tracer::Scope span(tr, "store.load_s");
      loaded.emplace(store::load_index(flags.get("scix")));
    }
    std::optional<Session> session;
    {
      const Tracer::Scope span(tr, "api.build_s");
      session.emplace(std::move(*loaded), options);
    }
    net::QueryClient client =
        net::QueryClient::connect(net::parse_endpoint(flags.get("connect")));
    const seqio::SequenceBank& bank1 = session->reference();
    for (std::size_t q = 0; q < std::min(count, docs.size()); ++q) {
      const seqio::SequenceBank query = seqio::read_fasta_string(docs[q]);
      DigestSink direct;
      double search_s = now_s();
      {
        const Tracer::Scope span(tr, "api.search_s");
        (void)session->search(query, direct);
      }
      search_s = now_s() - search_s;
      session_answers[q] =
          direct.digest.hex() + ":" + std::to_string(direct.rows);

      double replay_s = now_s();
      const std::vector<align::GappedAlignment> alignments = replay_compare(
          tr, bank1, &session->reference_index(), query, options, {});
      std::ostringstream sink;
      Fnv64 replay;
      write_m8(tr, sink, alignments, bank1, query, replay);
      replay_s = now_s() - replay_s;
      replay_minus_search += replay_s - search_s;
      replay_answers[q] =
          replay.hex() + ":" + std::to_string(alignments.size());

      Fnv64 served;
      double client_s = now_s();
      net::QueryResult r;
      {
        const Tracer::Scope span(tr, "net.query_s");
        r = client.query(docs[q], net::QueryStrand::kDefault,
                         [&](std::string_view rows) { served.update(rows); });
      }
      client_s = now_s() - client_s;
      if (!r.ok) throw std::runtime_error("query failed: " + r.error);
      net_answers[q] = served.hex() + ":" + std::to_string(r.alignments);
      server_ms.push_back(1000.0 * r.server_seconds);
      overhead_ms.push_back(1000.0 * (client_s - r.server_seconds));
    }
    stats_text = client.stats();
  }
  // scorisd_busy_refusals_total from the STAT snapshot.
  std::istringstream stat_lines(stats_text);
  for (std::string line; std::getline(stat_lines, line);) {
    if (line.rfind("scorisd_busy_refusals_total", 0) == 0) {
      tr.counts["daemon.busy_rejects"] =
          std::stod(line.substr(line.find_last_of(' ') + 1));
    }
  }
  tr.counts["net.server_ms_p50"] = median(server_ms);
  tr.counts["net.overhead_ms_p50"] = median(overhead_ms);
  tr.counts["trace.overhead_s"] = replay_minus_search;
  JsonObject out = layer_report(tr);
  out.raw("answers", json_map(replay_answers))
      .raw("paths", "{\"session\":" + json_map(session_answers) +
                        ",\"net\":" + json_map(net_answers) + "}");
  std::cout << out.str() << "\n";
  return 0;
}

/// In-process Session::search answers for the first --count queries:
/// the reference the served answers are checked against.
int cmd_answers(const Flags& flags) {
  const Session session =
      Session::open(flags.get("scix"), workload_options(flags));
  const std::vector<std::string> docs =
      split_fasta(seqio::read_fasta_file(flags.get("queries")));
  const auto count = static_cast<std::size_t>(flags.num("count", 8));
  std::map<std::size_t, std::string> answers;
  for (std::size_t q = 0; q < std::min(count, docs.size()); ++q) {
    DigestSink sink;
    (void)session.search(seqio::read_fasta_string(docs[q]), sink);
    answers[q] = sink.digest.hex() + ":" + std::to_string(sink.rows);
  }
  std::cout << json_map(answers) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver info|gen|batch|load|trace|answers "
                 "[--flag value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Flags flags(argc, argv);
    if (cmd == "info") return cmd_info();
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "batch") return cmd_batch(flags);
    if (cmd == "load") return cmd_load(flags);
    if (cmd == "trace") {
      return flags.has("scix") ? trace_stream(flags) : trace_batch(flags);
    }
    if (cmd == "answers") return cmd_answers(flags);
    std::cerr << "perfbench_driver: unknown subcommand " << cmd << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
