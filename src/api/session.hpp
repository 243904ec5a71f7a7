// scoris::Session — the resident-reference entry point of the public API.
//
// The ROADMAP's target workload is a service answering heavy repeated
// query traffic against one fixed reference bank.  The legacy entry
// points (Pipeline::run*, run_chunked) re-wire BankIndex + Pipeline
// plumbing per call and re-index the reference every time; a Session
// does the expensive preparation exactly once —
//
//   * load the reference (FASTA/.scob bank, or a prebuilt .scix store),
//   * DUST-mask and index it (skipped entirely for .scix artifacts),
//   * validate the Options (Options::validate is the single source of
//     truth; an invalid configuration throws and never reaches the
//     engine),
//   * spin up the worker pool —
//
// and then serves any number of search() calls against it, each
// streaming alignments through a HitSink in bounded memory.  The
// memory budget, strand selection, and delivery ordering vary per query
// via SearchLimits without touching the resident index.
//
// Thread safety: after construction a Session is immutable — the
// prepared reference, its index, the validated options, and the Karlin
// parameters are never written again — and search() is const.  Any
// number of threads may call search() on one shared Session
// concurrently (each query's mutable state is local to the call, and
// the shared worker pool hands every caller its own completion batch);
// this is exactly how the scorisd daemon serves parallel clients over
// one resident index.  A Session is movable but not copyable; moving it
// while queries are in flight is (unsurprisingly) not safe.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "api/hit_sink.hpp"
#include "core/exec/engine.hpp"
#include "core/options.hpp"
#include "core/pipeline.hpp"
#include "index/bank_index.hpp"
#include "obs/trace.hpp"
#include "seqio/sequence_bank.hpp"
#include "stats/karlin.hpp"
#include "store/index_store.hpp"
#include "util/threading.hpp"

namespace scoris {

/// The public option set (see core/options.hpp for fields and
/// validate()).
using Options = core::Options;

/// Per-query knobs of Session::search.  Everything here is
/// output-preserving except `ordering` (see HitOrdering) and `strand`
/// (which changes what is searched, not how).
struct SearchLimits {
  /// Approximate budget for the two in-memory indexes (bytes).  When
  /// > 0, bank2 is streamed in sequence slices so the resident reference
  /// index plus one slice index fit the budget (the paper's section-3.1
  /// discipline); output is byte-identical to the unsliced run.  0 = no
  /// slicing.
  std::size_t memory_budget_bytes = 0;
  /// Override the session Options' strand for this query only.
  std::optional<seqio::Strand> strand;
  /// Delivery order (kGlobal = canonical step-4 order; kGroupLocal =
  /// stream each strand/slice group as it finishes, bounded by the
  /// largest group).
  HitOrdering ordering = HitOrdering::kGlobal;
  /// Lower bound on bank2 slices (testing hook; 0 = derive from the
  /// budget alone).
  std::size_t min_chunks = 0;
  /// Override the session Options' delivery budget for this query
  /// (bytes; see Options::delivery_budget_bytes).  Bounds the kGlobal
  /// cross-group merge: sorted group runs spill to temp files over the
  /// budget and are k-way merged back in bounded head blocks.  0 = use
  /// the session options' value (whose own 0 means unbounded).
  std::size_t delivery_budget_bytes = 0;
  /// Override the session Options' spill directory for this query
  /// (empty = use the session options' value).
  std::string tmp_dir;
  /// Collect per-stage spans for this query (index/scan/gapped/merge;
  /// see obs::TraceRecorder).  Not owned; must outlive the search call.
  /// nullptr = no tracing.
  obs::TraceRecorder* trace = nullptr;
};

/// What one search() call reports.  `stats` is also handed to the sink's
/// on_stats, except that the session charges the one-time reference
/// index build to its *first* query's returned stats (so a CLI one-shot
/// prints the same step-1 seconds as the historical flat run, and later
/// queries demonstrably do not re-incur it).
struct SearchOutcome {
  core::PipelineStats stats;
  std::size_t groups = 0;  ///< (strand x slice) groups executed
  std::size_t slices = 0;  ///< bank2 slices (1 = unsliced)
};

class Session {
 public:
  /// Own `reference` and index it now, exactly once, with the validated
  /// `options` (throws std::invalid_argument listing every validation
  /// issue; std::invalid_argument from the indexer for W > 13).
  explicit Session(seqio::SequenceBank reference, Options options = {});

  /// Adopt a loaded .scix store: no indexing happens at all.  The store
  /// must hold a payload matching the options' effective settings
  /// (std::runtime_error listing the available payloads otherwise).
  explicit Session(store::IndexStore store, Options options = {});

  /// Load a reference by path: `.scix` stores are adopted, `.scob` and
  /// FASTA banks are read and indexed.  Throws on I/O or format errors.
  [[nodiscard]] static Session open(const std::string& path,
                                    Options options = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Compare the resident reference (query side, m8 qseqid) against
  /// `bank2`, streaming alignments into `sink`.  Reuses the prepared
  /// index and worker pool; never re-indexes the reference.  const and
  /// safe to call from any number of threads concurrently (see the
  /// header comment); each call's search state is call-local.
  SearchOutcome search(const seqio::SequenceBank& bank2, HitSink& sink,
                       const SearchLimits& limits = {}) const;

  /// Convenience: search into a Collector and return the historical
  /// whole-result vector (Pipeline::run semantics).
  [[nodiscard]] core::Result search_collect(
      const seqio::SequenceBank& bank2,
      const SearchLimits& limits = {}) const;

  /// The engine request search() runs for `bank2` under `limits`: the
  /// session's options with the limits' overrides applied and validated,
  /// and bank2 cut into budget slices (no cut leaves `slices` empty: one
  /// whole-bank slice).
  [[nodiscard]] core::exec::ExecRequest plan(
      const seqio::SequenceBank& bank2, const SearchLimits& limits) const;

  [[nodiscard]] const seqio::SequenceBank& reference() const;
  [[nodiscard]] const index::BankIndex& reference_index() const {
    return *idx1_;
  }
  [[nodiscard]] const Options& options() const { return options_; }

  /// Reference index builds performed by this session: 1 for a
  /// FASTA/.scob reference, 0 for an adopted .scix store — and never
  /// more, however many queries run.
  [[nodiscard]] std::size_t reference_builds() const { return builds_; }
  /// Wall seconds the one-time build took (0 when adopted).
  [[nodiscard]] double reference_build_seconds() const {
    return build_seconds_;
  }
  /// Queries served so far (successful search() calls, any thread).
  [[nodiscard]] std::size_t searches() const {
    return searches_.load(std::memory_order_relaxed);
  }

 private:
  void init_pool();

  // Everything below except `searches_` is written during construction
  // only; search() treats it as immutable shared state.
  Options options_;
  stats::KarlinParams karlin_;
  std::unique_ptr<store::IndexStore> store_;    // .scix-backed sessions
  std::unique_ptr<seqio::SequenceBank> bank_;   // owned-bank sessions
  std::unique_ptr<index::BankIndex> index_;     // owned build
  const index::BankIndex* idx1_ = nullptr;      // points into store_/index_
  std::unique_ptr<util::ThreadPool> pool_;      // threads > 1 only
  std::size_t builds_ = 0;
  double build_seconds_ = 0.0;
  /// Successful queries; the one whose fetch_add returns 0 is charged
  /// the one-time reference build.  Atomic so concurrent search() calls
  /// race neither the counter nor the charge.
  mutable std::atomic<std::size_t> searches_{0};
};

}  // namespace scoris
