// SCORIS-N: the four-step ORIS pipeline (paper figure 1).
//
//   step 1  index both banks (CSR occurrence lists, optional DUST mask,
//           optional stride-2 asymmetric indexing of bank2)
//   step 2  enumerate all 4^W seed codes in increasing order; for every
//           occurrence pair run the ordered ungapped extension; keep HSPs
//           scoring >= S1 — uniqueness comes from the order rule alone
//   step 3  gapped extension with diagonal-sorted containment dedup
//   step 4  e-value sort, m8 output
//
// Steps 2 and 3 parallelise exactly as the paper's section 4 sketches:
// the outer seed loop partitions by seed-code range (workers can never
// produce the same HSP thanks to the order rule), and step 3 partitions by
// subject sequence.  Results are deterministic and thread-count-invariant.
//
// Pipeline is a thin frontend: every entry path (flat, prebuilt index,
// sliced/chunked, both strands) compiles to an exec::ExecutionPlan of
// (strand x bank2-slice x seed-code-range) shards and runs on the shared
// execution engine in core/exec/.  The engine streams alignments through
// a HitSink (see core/hit_sink.hpp); the run* methods here are
// compatibility shims over a Collector sink that restore the historical
// whole-result vector.  New code should prefer scoris::Session
// (api/session.hpp), which keeps one reference index resident across
// queries and streams output in bounded memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "align/records.hpp"
#include "align/scoring.hpp"
#include "core/exec/plan.hpp"
#include "core/exec/shard_stats.hpp"
#include "core/gapped_stage.hpp"
#include "core/options.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "seqio/sequence_bank.hpp"
#include "seqio/strand.hpp"
#include "stats/karlin.hpp"

namespace scoris::core {

struct PipelineStats {
  double index_seconds = 0.0;
  double hsp_seconds = 0.0;     ///< step 2
  double gapped_seconds = 0.0;  ///< step 3
  double total_seconds = 0.0;

  std::size_t hit_pairs = 0;        ///< occurrence pairs examined
  std::size_t order_aborts = 0;     ///< extensions cut by the order rule
  std::size_t hsps = 0;             ///< HSPs above S1 (after dedup if any)
  std::size_t duplicate_hsps = 0;   ///< removed duplicates (order off only)
  std::size_t index_bytes = 0;      ///< both indexes
  // Index memory accounting (the ROADMAP's Mbp-scale probe): the O(4^W)
  // CSR offsets (the paper's dictionaries) and O(N) position lists (its
  // INDEX arrays) of both indexes, and the bank positions they cover.
  // bytes/position = (lists + positions) / positions — the paper's ~5N
  // counts the 4-byte INDEX entry plus the 1-byte SEQ code.
  std::size_t index_dict_bytes = 0;   ///< CSR offset bytes, both indexes
  std::size_t index_chain_bytes = 0;  ///< position-list bytes, both indexes
  std::size_t index_positions = 0;    ///< bank positions of both banks
  std::size_t masked_bases = 0;     ///< DUST-masked positions, both banks
  /// Match-run kernel the step-2 extensions ran with ("scalar", "sse4.1",
  /// "avx2") — the dispatcher's pick, or scalar when forced by the
  /// Options knob / SCORIS_FORCE_SCALAR.
  const char* simd_kernel = "scalar";
  GappedStageStats gapped;
  std::size_t alignments = 0;
  // Delivery-path accounting (the sink-facing side of the engine).  The
  // kGlobal cross-group merge used to buffer the whole hit set without
  // it ever showing up here, so reported peaks undercounted the worst
  // consumer; peak_delivery_bytes now covers every delivery path: the
  // largest streamed group for kGroupLocal/single-group plans, and
  // retained runs + spill head blocks + batch buffer for the k-way
  // merge.
  std::size_t peak_delivery_bytes = 0;
  std::size_t spilled_runs = 0;  ///< sorted runs sent to temp spill files
  std::size_t spill_bytes = 0;   ///< bytes written to spill files
  /// Step-2 shard wall-time spread over all (strand x slice) groups —
  /// scheduler balance at a glance (--stats prints min/median/max).
  exec::ShardBalance shard_balance;
  /// Per-group wall-time spreads for the other stages, one sample per
  /// (strand x slice) group, so stragglers are visible stage by stage:
  /// subject indexing and the gapped stage run group-at-a-time, which is
  /// the natural "shard" of those stages.
  exec::ShardBalance index_group_balance;
  exec::ShardBalance gapped_group_balance;
};

struct Result {
  std::vector<align::GappedAlignment> alignments;
  PipelineStats stats;
};

class Pipeline {
 public:
  explicit Pipeline(Options options = {});

  /// Run bank1 x bank2. bank1 is the "query" side of the m8 output; the
  /// e-value search space is |bank1| x |subject sequence| as in the paper.
  [[nodiscard]] Result run(const seqio::SequenceBank& bank1,
                           const seqio::SequenceBank& bank2) const;

  /// Same comparison with a prebuilt bank1 index (e.g. adopted from a
  /// .scix store): step 1 only indexes bank2, and the result is
  /// bit-identical to the two-bank overload when `idx1` was built with
  /// this pipeline's settings (word length, stride 1, same DUST mask).
  /// bank1 is never reverse-complemented, so one prebuilt index serves
  /// every --strand mode.  Throws std::invalid_argument when idx1's word
  /// length differs from the pipeline's effective W.
  [[nodiscard]] Result run(const index::BankIndex& idx1,
                           const seqio::SequenceBank& bank2) const;

  /// Same comparison restricted to the given bank2 sequence slices, with
  /// alignments remapped to bank2-global coordinates (the chunked
  /// driver's entry point; `run` is the single-slice special case).
  /// Slices are processed in order; results are bit-identical to the
  /// unsliced run as long as the slices partition [0, bank2.size()).
  [[nodiscard]] Result run_sliced(const seqio::SequenceBank& bank1,
                                  const seqio::SequenceBank& bank2,
                                  std::span<const exec::SliceRange> slices)
      const;
  [[nodiscard]] Result run_sliced(const index::BankIndex& idx1,
                                  const seqio::SequenceBank& bank2,
                                  std::span<const exec::SliceRange> slices)
      const;

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] const stats::KarlinParams& karlin() const { return karlin_; }

 private:
  Options options_;
  stats::KarlinParams karlin_;
};

/// Write a result in m8 format (step 4 display).
void write_result_m8(std::ostream& os, const Result& result,
                     const seqio::SequenceBank& bank1,
                     const seqio::SequenceBank& bank2);

}  // namespace scoris::core
