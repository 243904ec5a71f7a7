#include "index/bank_index.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "store/format.hpp"

namespace scoris::index {

using seqio::Code;

BankIndex::BankIndex(const seqio::SequenceBank& bank, const SeedCoder& coder,
                     const IndexOptions& options)
    : bank_(&bank), coder_(coder) {
  if (coder.w() > 13) {
    throw std::invalid_argument("BankIndex: W > 13 dictionary too large");
  }
  if (options.stride < 1) {
    throw std::invalid_argument("BankIndex: stride must be >= 1");
  }
  if (options.mask != nullptr && options.mask->size() != bank.data_size()) {
    throw std::invalid_argument("BankIndex: mask size mismatch");
  }
  if (options.mask != nullptr) masked_bases_ = options.mask->count();
  // The stride for asymmetric indexing applies to *sequence-local*
  // offsets, so an indexed word set never depends on what precedes the
  // sequence in the bank (this keeps sliced/chunked runs bit-identical,
  // see core/chunked.hpp).
  const auto stride = static_cast<std::size_t>(options.stride);
  build(options.offsets_buffer != nullptr ? *options.offsets_buffer
                                          : occ_offsets_storage_,
        options.mask, [stride](std::size_t /*pos*/, std::size_t local) {
    return stride == 1 || local % stride == 0;
  });
}

template <typename Keep>
void BankIndex::build(std::vector<std::uint32_t>& offsets,
                      const filter::MaskBitmap* mask, Keep word_kept) {
  const seqio::SequenceBank& bank = *bank_;
  const auto codes = bank.data();
  const auto w = static_cast<std::size_t>(coder_.w());

  // Visit every kept word start, in ascending position order, with its
  // seed code.  `run` counts the consecutive concrete, unmasked bases
  // ending at the current base, so a word qualifies iff its W bases are
  // all ACGT and none is masked: the mask->any_in(p, W) predicate at O(1)
  // per position.
  const auto for_each_word = [&](auto&& visit) {
    for (std::size_t s = 0; s < bank.size(); ++s) {
      const std::size_t off = bank.offset(s);
      const std::size_t len = bank.length(s);
      std::size_t run = 0;
      SeedCode code = 0;
      for (std::size_t local = 0; local < len; ++local) {
        const Code c = codes[off + local];
        const bool masked = mask != nullptr && mask->test(off + local);
        if (!seqio::is_base(c) || masked) {
          run = 0;
          continue;
        }
        code = coder_.roll_right(code, c);
        if (++run < w) continue;
        const std::size_t start = local + 1 - w;
        if (word_kept(off + start, start)) visit(off + start, code);
      }
    }
  };

  // Pass 1 counts code c into slot c + 2 of a 4^W + 2 array; a prefix
  // sum then leaves the start of code c in slot c + 1.
  const std::size_t num_codes = coder_.num_seeds();
  offsets.assign(num_codes + 2, 0);
  for_each_word([&](std::size_t, SeedCode code) { ++offsets[code + 2]; });
  for (std::size_t slot = 2; slot < num_codes + 2; ++slot) {
    distinct_seeds_ += offsets[slot] != 0 ? 1 : 0;
    offsets[slot] += offsets[slot - 1];
  }
  total_indexed_ = offsets[num_codes + 1];

  // Pass 2 scatters positions in ascending order, advancing slot c + 1
  // from the start of code c to its end, which is the start of code
  // c + 1: slots 0 .. 4^W now hold the offsets, and the spare is dropped.
  occ_positions_storage_.resize(total_indexed_);
  indexed_ = filter::MaskBitmap(codes.size());
  for_each_word([&](std::size_t pos, SeedCode code) {
    occ_positions_storage_[offsets[code + 1]++] =
        static_cast<std::int32_t>(pos);
    indexed_.set(pos);
  });
  offsets.pop_back();
  occ_offsets_ = offsets;
  occ_positions_ = occ_positions_storage_;
}

BankIndex BankIndex::adopt(const seqio::SequenceBank& bank,
                           const SeedCoder& coder, AdoptedIndex parts) {
  if (parts.occ_offsets.size() != coder.num_seeds() + 1) {
    throw std::invalid_argument(
        "BankIndex::adopt: occurrence offsets size mismatch");
  }
  if (parts.occ_positions.size() != parts.total_indexed ||
      parts.occ_offsets.front() != 0 ||
      parts.occ_offsets.back() != parts.total_indexed) {
    throw std::invalid_argument(
        "BankIndex::adopt: occurrence positions size mismatch");
  }
  if (parts.indexed.size() != bank.data_size()) {
    throw std::invalid_argument("BankIndex::adopt: bitmap size mismatch");
  }
  // One flat pass over each array, so an occurrence slice can neither
  // run past the positions nor name a word outside the bank.  Each pass
  // ORs a flag instead of branching out, which lets it vectorize.
  const std::span<const std::uint32_t> offsets = parts.occ_offsets;
  std::uint32_t falls = 0;
  for (std::size_t code = 0; code + 1 < offsets.size(); ++code) {
    falls |= offsets[code] > offsets[code + 1];
  }
  if (falls != 0) {
    throw std::invalid_argument(
        "BankIndex::adopt: occurrence offsets decrease");
  }
  // A word starting at p fits iff 0 <= p <= data_size - W.  As unsigned,
  // a negative p lies past any bound up to INT32_MAX.
  const std::int64_t last_start =
      static_cast<std::int64_t>(bank.data_size()) - coder.w();
  const auto last = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      last_start, 0, std::numeric_limits<std::int32_t>::max()));
  std::uint32_t outside =
      last_start < 0 && !parts.occ_positions.empty() ? 1 : 0;
  for (const std::int32_t p : parts.occ_positions) {
    outside |= static_cast<std::uint32_t>(p) > last;
  }
  if (outside != 0) {
    throw std::invalid_argument(
        "BankIndex::adopt: occurrence position outside the bank");
  }
  BankIndex idx(bank, coder, /*adopt_tag=*/0);
  idx.owner_ = std::move(parts.owner);
  idx.occ_offsets_ = parts.occ_offsets;
  idx.occ_positions_ = parts.occ_positions;
  idx.indexed_ = std::move(parts.indexed);
  idx.total_indexed_ = parts.total_indexed;
  idx.distinct_seeds_ = parts.distinct_seeds;
  idx.masked_bases_ = parts.masked_bases;
  return idx;
}

std::vector<std::size_t> BankIndex::occupancy_histogram(
    std::size_t buckets) const {
  const std::size_t codes = occ_offsets_.size() - 1;
  buckets = std::min(std::max<std::size_t>(1, buckets), codes);
  std::vector<std::size_t> hist(buckets, 0);
  const std::size_t per = (codes + buckets - 1) / buckets;
  for (std::size_t code = 0; code < codes; ++code) {
    hist[code / per] += occ_offsets_[code + 1] - occ_offsets_[code];
  }
  return hist;
}

namespace {

constexpr store::Tag kIndexMagic = store::make_tag("SCOI");
constexpr store::Tag kIndexSection = store::make_tag("INDX");
// Version 3 bodies hold the CSR lists only; version 2 bodies (the chain
// layout, see load_body) still load.
constexpr std::uint32_t kIndexVersion = 3;
constexpr std::uint32_t kOldestIndexVersion = 2;

}  // namespace

void BankIndex::save_body(store::SectionWriter& section) const {
  section.put_u64(total_indexed_);
  section.put_u64(distinct_seeds_);
  section.put_u64(masked_bases_);
  section.put_array(std::span<const std::uint64_t>(indexed_.words()));
  section.put_u64(indexed_.size());
  section.put_array(occ_offsets_);
  section.put_array(occ_positions_);
}

BankIndex BankIndex::load_body(store::SectionReader& section,
                               const seqio::SequenceBank& bank,
                               const SeedCoder& coder,
                               const std::string& what, bool chain_layout) {
  AdoptedIndex parts;
  parts.total_indexed = section.read_u64();
  parts.distinct_seeds = section.read_u64();
  parts.masked_bases = section.read_u64();
  if (chain_layout) {
    // The 4^W dictionary and the per-position chain: the lists that
    // follow (or the bitmap) carry the same information.
    (void)section.read_array_view<std::int32_t>();
    (void)section.read_array_view<std::int32_t>();
  }
  // The bitmap is copied out because MaskBitmap owns its words.
  auto words = section.read_array<std::uint64_t>();
  const std::uint64_t bit_size = section.read_u64();
  if (words.size() != bit_size / 64 + (bit_size % 64 != 0 ? 1 : 0)) {
    throw std::runtime_error(what + ": word-start bitmap size inconsistent");
  }
  parts.indexed = filter::MaskBitmap::from_words(
      std::move(words), static_cast<std::size_t>(bit_size));
  try {
    if (!chain_layout) {
      // The lists stay in the section payload (the load path's big
      // buffers) as zero-copy views.
      parts.occ_offsets = section.read_array_view<std::uint32_t>();
      parts.occ_positions = section.read_array_view<std::int32_t>();
      parts.owner = section.payload_owner();
    } else if (section.remaining() > 0) {
      // Chain-layout body with trailing lists: copy the lists so the
      // payload, chains included, is freed once loading ends.
      auto lists = std::make_shared<
          std::pair<std::vector<std::uint32_t>, std::vector<std::int32_t>>>();
      lists->first = section.read_array<std::uint32_t>();
      lists->second = section.read_array<std::int32_t>();
      parts.occ_offsets = lists->first;
      parts.occ_positions = lists->second;
      parts.owner = std::move(lists);
    } else {
      // Chain-layout body without lists: rebuild them from the bank and
      // the stored word-start bitmap.
      if (coder.w() > 13 || parts.indexed.size() != bank.data_size()) {
        throw std::invalid_argument("body does not fit the bank");
      }
      BankIndex idx(bank, coder, /*adopt_tag=*/0);
      idx.masked_bases_ = parts.masked_bases;
      const filter::MaskBitmap& kept = parts.indexed;
      idx.build(idx.occ_offsets_storage_, nullptr,
                [&kept](std::size_t pos, std::size_t /*local*/) {
                  return kept.test(pos);
                });
      if (idx.total_indexed_ != parts.total_indexed ||
          idx.distinct_seeds_ != parts.distinct_seeds) {
        throw std::invalid_argument(
            "counters do not match the word-start bitmap");
      }
      return idx;
    }
    return adopt(bank, coder, std::move(parts));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(what + ": " + e.what());
  }
}

void BankIndex::save(std::ostream& os) const {
  store::write_header(os, kIndexMagic, kIndexVersion);
  store::SectionWriter section(kIndexSection);
  section.put_u32(static_cast<std::uint32_t>(coder_.w()));
  section.put_u64(bank_->data_size());
  save_body(section);
  section.finish(os);
  if (!os) throw std::runtime_error("index save: write failed");
}

BankIndex BankIndex::load(std::istream& is, const seqio::SequenceBank& bank) {
  const std::string what = "index load";
  const std::uint32_t version = store::read_header(
      is, kIndexMagic, kIndexVersion, what, kOldestIndexVersion);
  store::SectionReader section(is, what);
  if (!section.is(kIndexSection)) {
    throw std::runtime_error(what + ": unexpected " + section.tag_name() +
                             " section");
  }
  const auto w = static_cast<int>(section.read_u32());
  const std::uint64_t data_size = section.read_u64();
  if (data_size != bank.data_size()) {
    throw std::runtime_error(
        what + ": bank size mismatch (index built for another bank?)");
  }
  return load_body(section, bank, SeedCoder(w), what,
                   /*chain_layout=*/version < 3);
}

}  // namespace scoris::index
