// BankIndex — the paper's figure-2 structure, stored as CSR lists.
//
// The paper indexes a bank with a 4^W dictionary plus an INDEX array that
// holds one 4-byte entry per position, chaining the positions of identical
// seeds (section 3.1).  Here the same information is laid out as
// compressed-sparse-row occurrence lists: occ_offsets (4^W + 1 entries)
// says where each seed's run starts, and occ_positions (one int32 per
// indexed word) holds every seed's positions in ascending order.  The
// offsets play the dictionary's part and the positions the INDEX array's,
// so memory is ~4 bytes per indexed position + 1 byte per position (SEQ,
// owned by the bank) + 4*4^W dictionary bytes — the paper's "approximately
// 5 N bytes", which bench_a4_index_cost verifies.  The step-2 scan walks a
// seed's occurrences as one contiguous slice, and occurrence counts are
// O(1) offset subtractions.
//
// The build is a counting sort in two ascending passes over the bank:
// count codes, prefix-sum the counts into starts, scatter positions.
//
// Options cover the paper's two indexing variants:
//  * a low-complexity mask: masked words are not indexed (section 2.1);
//  * stride-2 subsampling ("asymmetric indexing" of 10-nt words, section
//    3.4): only every other word of the bank is indexed.
//
// The lists live behind spans: an index either owns its buffers (built by
// the constructor) or *adopts* externally owned ones (deserialized from a
// .scix store) without copying or re-scanning the bank.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "filter/mask.hpp"
#include "index/seed_coder.hpp"
#include "seqio/sequence_bank.hpp"

namespace scoris::store {
class SectionReader;
class SectionWriter;
}  // namespace scoris::store

namespace scoris::index {

struct IndexOptions {
  /// Index word starts whose *sequence-local* offset is a multiple of
  /// stride (1 = every position; 2 = the paper's asymmetric half-words;
  /// W = BLAT-style non-overlapping tiles).
  int stride = 1;
  const filter::MaskBitmap* mask = nullptr;  ///< optional soft mask
  /// When set, the offsets are built in this vector, reusing its capacity,
  /// and the index only views them: the vector must outlive the index and
  /// back no other index meanwhile.
  std::vector<std::uint32_t>* offsets_buffer = nullptr;
};

/// Prebuilt index buffers handed to BankIndex::adopt.  The spans may point
/// into memory owned elsewhere; `owner` keeps that memory alive for the
/// index's lifetime.  Sizes, offset order and position bounds are
/// validated; the store's CRC guards the rest of the bytes.
struct AdoptedIndex {
  std::span<const std::uint32_t> occ_offsets;   ///< 4^W + 1 entries
  std::span<const std::int32_t> occ_positions;  ///< total_indexed entries
  filter::MaskBitmap indexed;                   ///< word-start bitmap
  std::size_t total_indexed = 0;
  std::size_t distinct_seeds = 0;
  std::size_t masked_bases = 0;  ///< mask popcount at build time
  std::shared_ptr<const void> owner;  ///< keep-alive for the spans above
};

class BankIndex {
 public:
  /// Build the index for `bank` with word length `coder.w()`.
  /// The bank must outlive the index. Throws std::invalid_argument for
  /// W > 13 (dictionary would exceed 1 GiB).
  BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
            const IndexOptions& options = {});

  /// Wrap prebuilt buffers without re-scanning the bank.  Sizes, the
  /// offsets' order and every position's word bounds are validated
  /// against the bank and coder (std::invalid_argument).
  [[nodiscard]] static BankIndex adopt(const seqio::SequenceBank& bank,
                                       const SeedCoder& coder,
                                       AdoptedIndex parts);

  // Spans into owned storage make copies unsafe; the pipeline only ever
  // builds in place or moves.
  BankIndex(const BankIndex&) = delete;
  BankIndex& operator=(const BankIndex&) = delete;
  BankIndex(BankIndex&&) = default;
  BankIndex& operator=(BankIndex&&) = default;

  [[nodiscard]] const seqio::SequenceBank& bank() const { return *bank_; }
  [[nodiscard]] const SeedCoder& coder() const { return coder_; }
  [[nodiscard]] int w() const { return coder_.w(); }

  /// True when global position `pos` is a word start present in the index
  /// (i.e. all-ACGT, not masked, stride-selected).  The ORIS seed-order
  /// abort must only trigger on seeds that are actually enumerable, which
  /// is exactly this predicate.
  [[nodiscard]] bool is_indexed(seqio::Pos pos) const {
    return indexed_.test(pos);
  }

  /// All occurrences of `code` in ascending position order, as one
  /// contiguous slice of the occurrence array.
  [[nodiscard]] std::span<const std::int32_t> occurrences_span(
      SeedCode code) const {
    return occ_positions_.subspan(occ_offsets_[code],
                                  occ_offsets_[code + 1] -
                                      occ_offsets_[code]);
  }

  /// Visit every occurrence of `code` in ascending position order.
  template <typename Fn>
  void for_each(SeedCode code, Fn&& fn) const {
    for (const std::int32_t p : occurrences_span(code)) {
      fn(static_cast<seqio::Pos>(p));
    }
  }

  /// Number of occurrences of `code` — O(1) from the CSR offsets.
  [[nodiscard]] std::size_t occurrence_count(SeedCode code) const {
    return occ_offsets_[code + 1] - occ_offsets_[code];
  }

  /// Occupancy histogram over the seed-code space: bucket b counts the
  /// indexed positions whose code falls in [b*ceil(4^W/buckets), ...).
  /// The bucket sum equals total_indexed().  `buckets` is clamped to
  /// [1, 4^W].  O(4^W) over the CSR offsets, so plan compilation places
  /// its adaptive shard boundaries without re-reading the positions.
  [[nodiscard]] std::vector<std::size_t> occupancy_histogram(
      std::size_t buckets) const;

  /// Total indexed word positions over all seeds.
  [[nodiscard]] std::size_t total_indexed() const { return total_indexed_; }

  /// Number of distinct seeds present in the bank.
  [[nodiscard]] std::size_t distinct_seeds() const { return distinct_seeds_; }

  /// Positions excluded by the build-time soft mask (0 when unmasked).
  /// Recorded so a deserialized index reports the same --stats numbers as
  /// a fresh build without rerunning DUST.
  [[nodiscard]] std::size_t masked_bases() const { return masked_bases_; }

  /// Bytes of the 4^W + 1 occurrence offsets — the paper's dictionary.
  [[nodiscard]] std::size_t dictionary_bytes() const {
    return occ_offsets_.size() * sizeof(std::uint32_t);
  }

  /// Bytes of the occurrence positions — the paper's INDEX array, holding
  /// one entry per indexed word rather than per bank position.
  [[nodiscard]] std::size_t chain_bytes() const {
    return occ_positions_.size() * sizeof(std::int32_t);
  }

  /// Index bytes held beyond dictionary_bytes() + chain_bytes(): 0, since
  /// the CSR lists are the only representation.  Kept so memory reports
  /// that sum all three stay correct if a side structure returns.
  [[nodiscard]] std::size_t occurrence_bytes() const { return 0; }

  /// Bytes held by the index: dictionary + positions.
  [[nodiscard]] std::size_t memory_bytes() const {
    return dictionary_bytes() + chain_bytes();
  }

  /// Raw buffer access (serialization).
  [[nodiscard]] std::span<const std::uint32_t> occurrence_offsets() const {
    return occ_offsets_;
  }
  [[nodiscard]] std::span<const std::int32_t> occurrence_positions() const {
    return occ_positions_;
  }
  [[nodiscard]] const filter::MaskBitmap& indexed_bitmap() const {
    return indexed_;
  }

  /// Serialize the index (magic "SCOI"). The bank itself is not stored;
  /// pair with seqio::save_bank. Throws std::runtime_error on failure.
  void save(std::ostream& os) const;

  /// Deserialize an index previously saved for `bank` (the bank's data
  /// size is validated). Throws std::runtime_error on mismatch.
  [[nodiscard]] static BankIndex load(std::istream& is,
                                      const seqio::SequenceBank& bank);

  /// Append the index body — counters, word-start bitmap, occurrence
  /// offsets and positions — to a section.  One layout shared by the bare
  /// .scoi format and the .scix store's INDX payloads.
  void save_body(store::SectionWriter& section) const;

  /// Read a body written by save_body and adopt its buffers: offsets and
  /// positions become zero-copy views pinned by the section's payload
  /// owner.  With `chain_layout` the body is the older one written before
  /// the chains were dropped (counters, dictionary, chain, bitmap, then
  /// optionally the lists): the chains are skipped, and the lists are
  /// copied out when present or rebuilt from the bank and the bitmap when
  /// not.  `what` prefixes diagnostics; throws std::runtime_error when
  /// the body does not fit `bank`/`coder`.
  [[nodiscard]] static BankIndex load_body(store::SectionReader& section,
                                           const seqio::SequenceBank& bank,
                                           const SeedCoder& coder,
                                           const std::string& what,
                                           bool chain_layout);

 private:
  BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
            int /*adopt_tag*/)
      : bank_(&bank), coder_(coder) {}

  /// Counting-sort build of the lists, bitmap and counters over the word
  /// starts that `word_kept(p, local)` accepts among those whose W bases
  /// are all concrete and unmasked (global position p, sequence-local
  /// offset local).  The offsets are built in `offsets`.
  template <typename Keep>
  void build(std::vector<std::uint32_t>& offsets,
             const filter::MaskBitmap* mask, Keep word_kept);

  const seqio::SequenceBank* bank_;
  SeedCoder coder_;
  // Owned storage when built in place; empty when adopting, in which case
  // owner_ pins the external memory behind the spans.  The offsets stay
  // empty too when they were built in IndexOptions::offsets_buffer.
  std::vector<std::uint32_t> occ_offsets_storage_;
  std::vector<std::int32_t> occ_positions_storage_;
  std::shared_ptr<const void> owner_;
  // CSR occurrence lists: positions of code c live at
  // occ_positions_[occ_offsets_[c] .. occ_offsets_[c+1]), ascending.
  std::span<const std::uint32_t> occ_offsets_;   // 4^W + 1 entries
  std::span<const std::int32_t> occ_positions_;  // total_indexed entries
  filter::MaskBitmap indexed_;           // word-start membership bitmap
  std::size_t total_indexed_ = 0;
  std::size_t distinct_seeds_ = 0;
  std::size_t masked_bases_ = 0;
};

}  // namespace scoris::index
