// The sharded execution engine behind every pipeline entry path.
//
// execute() compiles a comparison into an ExecutionPlan (see plan.hpp)
// and runs it:
//
//   step 1   bank1 is masked+indexed once (or adopted prebuilt) — never
//            per slice or per strand;
//   groups   each (strand x bank2-slice) group is processed in plan
//            order: the slice is materialized (and reverse-complemented
//            for minus groups), masked, indexed, its seed-code shards run
//            on the static or work-stealing scheduler, and the group's
//            HSPs feed the gapped stage;
//   merge    group alignments are remapped to bank2-global coordinates
//            and delivered to the HitSink — immediately per group when
//            the ordering allows (single-group plans, or
//            HitOrdering::kGroupLocal), otherwise collected as sorted
//            runs (in memory under the delivery budget, CRC-framed temp
//            spill files over it) and streamed through a stable k-way
//            merge in bounded batches (see core/exec/run_merge.hpp).
//
// Determinism: shard outputs concatenate in ascending seed-code order, so
// the HSP stream — and therefore the m8 output — is byte-identical for
// any thread count, shard count, or schedule.  Timing and shard-balance
// numbers land in PipelineStats via the ShardStatsReducer; the bank1
// index is accounted exactly once (seconds and bytes), fixing the
// per-slice double counting the old per-path drivers had.
#pragma once

#include <vector>

#include "core/exec/plan.hpp"
#include "core/hit_sink.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"

namespace scoris::core::exec {

/// One comparison, ready for planning.  `bank1`/`bank2` are required;
/// `prebuilt1` (e.g. adopted from a .scix store) suppresses the bank1
/// indexing step and must have been built for `bank1` with the run's
/// effective word length (std::invalid_argument otherwise).
struct ExecRequest {
  const seqio::SequenceBank* bank1 = nullptr;
  const index::BankIndex* prebuilt1 = nullptr;
  const seqio::SequenceBank* bank2 = nullptr;
  /// Bank2 sequence slices in processing order; empty = one whole-bank
  /// slice.  Must partition [0, bank2->size()) for exact results.
  std::vector<SliceRange> slices;
  Options options;
  /// Base Karlin-Altschul parameters (composition_stats re-solves per
  /// group from the actual bank compositions).
  stats::KarlinParams karlin;
  /// Delivery order for the sink-driven execute (see HitOrdering).
  HitOrdering ordering = HitOrdering::kGlobal;
  /// Reusable worker pool (a Session's); nullptr = spawn workers per
  /// scheduling point as before.
  util::ThreadPool* pool = nullptr;
  /// Optional per-query trace collector: the engine records spans for
  /// the index/scan/gapped/merge stages of every group (Chrome
  /// trace_event export via obs::TraceRecorder).  nullptr = no tracing,
  /// zero overhead on the scan path.
  obs::TraceRecorder* trace = nullptr;
};

/// What a sink-driven run reports besides the alignments it streamed.
struct ExecSummary {
  PipelineStats stats;
  std::size_t groups = 0;  ///< (strand x slice) groups executed
  std::size_t slices = 0;  ///< bank2 slices in the plan
  /// Spill-run counters of the kGlobal cross-group merge (also in
  /// stats): how many sorted group runs went to temp files and the
  /// bytes they framed on disk.  0/0 for streamed or in-memory runs.
  std::size_t spilled_runs = 0;
  std::size_t spill_bytes = 0;
};

struct ExecResult {
  std::vector<align::GappedAlignment> alignments;  ///< bank2-global coords
  PipelineStats stats;
  std::size_t groups = 0;  ///< (strand x slice) groups executed
  std::size_t slices = 0;  ///< bank2 slices in the plan
};

/// Compile and run the comparison, streaming alignments through `sink`
/// (at least one on_group call, then exactly one on_stats).  Throws
/// std::invalid_argument on a word-length mismatch with `prebuilt1`.
ExecSummary execute(const ExecRequest& request, HitSink& sink);

/// Collector-backed wrapper preserving the historical whole-result
/// vector; the legacy Pipeline::run* entry points are shims over this.
[[nodiscard]] ExecResult execute(const ExecRequest& request);

/// One plan group of `request`: bank2 slice `slice` on one strand, in
/// canonical order.  The unit a distributed search executes on a worker
/// or on the coordinator.
[[nodiscard]] ExecResult execute_group(ExecRequest request, SliceRange slice,
                                       bool minus);

}  // namespace scoris::core::exec
