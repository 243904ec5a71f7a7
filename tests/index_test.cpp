// Tests for src/index: seed coding (the paper's order), rolling updates,
// and the CSR bank index.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "index/seed_coder.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"
#include "test_helpers.hpp"

namespace scoris::index {
namespace {

using scoris::testing::codes_of;

// --- SeedCoder -----------------------------------------------------------------

TEST(SeedCoder, PaperEncodingLittleEndian) {
  // codeSEED(S) = sum 4^i * codeNT(S_i): first character has weight 4^0.
  const SeedCoder coder(3);
  // "CAA" -> C*1 + A*4 + A*16 = 1.
  EXPECT_EQ(coder.encode("CAA"), 1u);
  // "ACA" -> 0 + 1*4 + 0 = 4.
  EXPECT_EQ(coder.encode("ACA"), 4u);
  // "GGG" -> 3*(1+4+16) = 63.
  EXPECT_EQ(coder.encode("GGG"), 63u);
  // "TAA" -> 2 (T = 10b).
  EXPECT_EQ(coder.encode("TAA"), 2u);
}

TEST(SeedCoder, OrderFollowsPaperNucleotideOrder) {
  const SeedCoder coder(2);
  // With A<C<T<G and little-endian weighting, "AA" < "CA" < "TA" < "GA"
  // (first char least significant!) and "AA" < "AC".
  EXPECT_LT(coder.encode("AA"), coder.encode("CA"));
  EXPECT_LT(coder.encode("CA"), coder.encode("TA"));
  EXPECT_LT(coder.encode("TA"), coder.encode("GA"));
  EXPECT_LT(coder.encode("GA"), coder.encode("AC"));
}

TEST(SeedCoder, DecodeRoundTrip) {
  const SeedCoder coder(5);
  for (const char* word : {"ACGTA", "GGGGG", "TTTTT", "CATGC"}) {
    EXPECT_EQ(coder.decode(coder.encode(word)), word);
  }
}

TEST(SeedCoder, NumSeeds) {
  EXPECT_EQ(SeedCoder(1).num_seeds(), 4u);
  EXPECT_EQ(SeedCoder(11).num_seeds(), 4194304u);
  EXPECT_EQ(SeedCoder(13).num_seeds(), 67108864u);
}

TEST(SeedCoder, RejectsBadW) {
  EXPECT_THROW(SeedCoder(0), std::invalid_argument);
  EXPECT_THROW(SeedCoder(16), std::invalid_argument);
}

TEST(SeedCoder, CodeAtHandlesAmbiguityAndBounds) {
  const SeedCoder coder(4);
  const auto codes = codes_of("ACGTNACGT");
  EXPECT_TRUE(coder.code_at(codes, 0).has_value());
  EXPECT_FALSE(coder.code_at(codes, 1).has_value());  // window covers N
  EXPECT_FALSE(coder.code_at(codes, 3).has_value());
  EXPECT_TRUE(coder.code_at(codes, 5).has_value());
  EXPECT_FALSE(coder.code_at(codes, 6).has_value());  // out of range
}

TEST(SeedCoder, RollRightMatchesRecompute) {
  simulate::Rng rng(5);
  const auto s = simulate::random_codes(rng, 200);
  const SeedCoder coder(11);
  SeedCode code = coder.code_unchecked(s, 0);
  for (std::size_t p = 1; p + 11 <= s.size(); ++p) {
    code = coder.roll_right(code, s[p + 10]);
    EXPECT_EQ(code, coder.code_unchecked(s, p)) << p;
  }
}

TEST(SeedCoder, RollLeftMatchesRecompute) {
  simulate::Rng rng(7);
  const auto s = simulate::random_codes(rng, 200);
  const SeedCoder coder(9);
  SeedCode code = coder.code_unchecked(s, s.size() - 9);
  for (std::size_t p = s.size() - 9; p-- > 0;) {
    code = coder.roll_left(code, s[p]);
    EXPECT_EQ(code, coder.code_unchecked(s, p)) << p;
  }
}

TEST(SeedCoder, EncodeRejectsBadInput) {
  const SeedCoder coder(4);
  EXPECT_THROW((void)coder.encode("ACG"), std::invalid_argument);   // wrong length
  EXPECT_THROW((void)coder.encode("ACGN"), std::invalid_argument);  // non-ACGT
}

// --- BankIndex -----------------------------------------------------------------

seqio::SequenceBank small_bank() {
  seqio::SequenceBank bank("idx");
  bank.add("s0", "ACGTACGTACGT");
  bank.add("s1", "TTTTACGTTTTT");
  return bank;
}

TEST(BankIndex, FindsAllOccurrencesInAscendingOrder) {
  const auto bank = small_bank();
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  const SeedCode acgt = coder.encode("ACGT");
  std::vector<seqio::Pos> occ;
  idx.for_each(acgt, [&](seqio::Pos p) { occ.push_back(p); });
  // s0 has ACGT at local 0,4,8; s1 at local 4.
  const auto o0 = bank.offset(0);
  const auto o1 = bank.offset(1);
  const std::vector<seqio::Pos> expected = {o0, o0 + 4, o0 + 8, o1 + 4};
  EXPECT_EQ(occ, expected);
  EXPECT_EQ(idx.occurrence_count(acgt), 4u);
}

TEST(BankIndex, MatchesNaiveEnumerationOnRandomBank) {
  simulate::Rng rng(11);
  seqio::SequenceBank bank("rand");
  for (int i = 0; i < 5; ++i) {
    const auto s = simulate::random_codes(rng, 300 + rng.next_below(200));
    bank.add_codes("s" + std::to_string(i), s);
  }
  const SeedCoder coder(6);
  const BankIndex idx(bank, coder);

  // Naive: every word start by direct scan.
  std::map<SeedCode, std::vector<seqio::Pos>> naive;
  const auto data = bank.data();
  for (std::size_t p = 0; p + 6 <= data.size(); ++p) {
    if (const auto c = coder.code_at(data, p)) {
      naive[*c].push_back(static_cast<seqio::Pos>(p));
    }
  }
  std::size_t total = 0;
  for (const auto& [code, positions] : naive) {
    std::vector<seqio::Pos> got;
    idx.for_each(code, [&](seqio::Pos p) { got.push_back(p); });
    EXPECT_EQ(got, positions) << "code " << code;
    total += positions.size();
  }
  EXPECT_EQ(idx.total_indexed(), total);
  EXPECT_EQ(idx.distinct_seeds(), naive.size());
}

TEST(BankIndex, NeverIndexesAcrossSentinels) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTAC");  // words of length 4: positions 0..2 only
  bank.add("b", "GTACGT");
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  // Every indexed position must be >= its sequence offset and leave room
  // for a whole word inside the sequence.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) {
      const auto sid = bank.seq_of_pos(p);
      EXPECT_LE(p + 4, bank.offset(sid) + bank.length(sid));
    });
  }
}

TEST(BankIndex, SkipsAmbiguousWindows) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTNACGTA");
  const SeedCoder coder(4);
  const BankIndex idx(bank, coder);
  // Valid word starts: local 0 (ACGT) and 5..6 (ACGT, CGTA).
  EXPECT_EQ(idx.total_indexed(), 3u);
}

TEST(BankIndex, StrideTwoHalvesTheIndex) {
  simulate::Rng rng(13);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 4000));
  const SeedCoder coder(8);
  const BankIndex full(bank, coder);
  IndexOptions opt;
  opt.stride = 2;
  const BankIndex half(bank, coder, opt);
  EXPECT_NEAR(static_cast<double>(half.total_indexed()),
              static_cast<double>(full.total_indexed()) / 2.0,
              static_cast<double>(full.total_indexed()) * 0.02 + 2);
  // Stride-indexed positions are a subset of full positions at even
  // sequence-local coordinates.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    half.for_each(c, [&](seqio::Pos p) {
      EXPECT_EQ((p - bank.offset(bank.seq_of_pos(p))) % 2, 0u);
      EXPECT_TRUE(full.is_indexed(p));
    });
  }
}

TEST(BankIndex, StrideIsSequenceLocal) {
  // Two banks: one where the sequence is preceded by another of odd
  // length.  The stride-2 word set of that sequence must be identical in
  // both (local offsets, not global parity).
  simulate::Rng rng(131);
  const auto target = simulate::random_codes(rng, 200);
  seqio::SequenceBank solo, shifted;
  solo.add_codes("t", target);
  shifted.add_codes("pad", simulate::random_codes(rng, 33));  // odd shift
  shifted.add_codes("t", target);

  const SeedCoder coder(8);
  IndexOptions opt;
  opt.stride = 2;
  const BankIndex idx_solo(solo, coder, opt);
  const BankIndex idx_shifted(shifted, coder, opt);

  const auto local_words = [&](const BankIndex& idx,
                               const seqio::SequenceBank& bank,
                               std::size_t seq) {
    std::vector<std::size_t> out;
    for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
      idx.for_each(c, [&](seqio::Pos p) {
        if (bank.seq_of_pos(p) == seq) out.push_back(p - bank.offset(seq));
      });
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(local_words(idx_solo, solo, 0), local_words(idx_shifted, shifted, 1));
}

TEST(BankIndex, MaskExcludesWords) {
  seqio::SequenceBank bank;
  bank.add("a", std::string(50, 'A') + "ACGTACGTACGT");
  const filter::MaskBitmap mask = filter::dust_mask(bank);
  ASSERT_GT(mask.count(), 0u);
  const SeedCoder coder(4);
  IndexOptions opt;
  opt.mask = &mask;
  const BankIndex idx(bank, coder, opt);
  const BankIndex unmasked(bank, coder);
  EXPECT_LT(idx.total_indexed(), unmasked.total_indexed());
  // No indexed word may overlap a masked position.
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) { EXPECT_FALSE(mask.any_in(p, 4)); });
  }
}

TEST(BankIndex, IsIndexedConsistentWithChains) {
  simulate::Rng rng(17);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 1000));
  const SeedCoder coder(7);
  const BankIndex idx(bank, coder);
  filter::MaskBitmap seen(bank.data_size());
  for (SeedCode c = 0; c < coder.num_seeds(); ++c) {
    idx.for_each(c, [&](seqio::Pos p) { seen.set(p); });
  }
  for (std::size_t p = 0; p < bank.data_size(); ++p) {
    EXPECT_EQ(idx.is_indexed(static_cast<seqio::Pos>(p)), seen.test(p)) << p;
  }
}

TEST(BankIndex, MemoryApproximatelyFiveBytesPerNucleotide) {
  // The paper (3.1): "The index structure required for storing a bank of
  // size N is approximately equal to 5 x N bytes" (4 bytes INDEX chain +
  // 1 byte SEQ) plus the 4^W dictionary.
  simulate::Rng rng(19);
  seqio::SequenceBank bank;
  bank.add_codes("s", simulate::random_codes(rng, 500000));
  const SeedCoder coder(11);
  const BankIndex idx(bank, coder);
  const double n = static_cast<double>(bank.total_bases());
  const double chain_bytes = static_cast<double>(idx.memory_bytes()) -
                             4.0 * static_cast<double>(coder.num_seeds());
  const double per_nt =
      (chain_bytes + static_cast<double>(bank.data_size())) / n;
  EXPECT_NEAR(per_nt, 5.0, 0.25);
}

TEST(BankIndex, RejectsHugeW) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGT");
  EXPECT_THROW(BankIndex(bank, SeedCoder(14)), std::invalid_argument);
}

TEST(BankIndex, RejectsBadOptions) {
  seqio::SequenceBank bank;
  bank.add("a", "ACGTACGT");
  IndexOptions opt;
  opt.stride = 0;
  EXPECT_THROW(BankIndex(bank, SeedCoder(4), opt), std::invalid_argument);
  filter::MaskBitmap wrong(3);
  IndexOptions opt2;
  opt2.mask = &wrong;
  EXPECT_THROW(BankIndex(bank, SeedCoder(4), opt2), std::invalid_argument);
}

TEST(BankIndex, EmptyAndTinyBanks) {
  seqio::SequenceBank bank;
  const SeedCoder coder(5);
  const BankIndex empty_idx(bank, coder);
  EXPECT_EQ(empty_idx.total_indexed(), 0u);
  seqio::SequenceBank tiny;
  tiny.add("t", "ACG");  // shorter than W
  const BankIndex tiny_idx(tiny, coder);
  EXPECT_EQ(tiny_idx.total_indexed(), 0u);
}

// --- counting-sort build vs a brute-force reference -------------------------

/// Random sequences with N runs, some shorter than `w`.
seqio::SequenceBank ragged_bank(simulate::Rng& rng, int w) {
  seqio::SequenceBank bank("ragged");
  for (int i = 0; i < 12; ++i) {
    const std::size_t len =
        i % 4 == 0 ? rng.next_below(static_cast<std::uint64_t>(w))
                   : 1 + rng.next_below(400);
    auto codes = simulate::random_codes(rng, len);
    for (std::size_t p = 0; p < codes.size(); ++p) {
      if (rng.next_bool(0.01)) {
        const std::size_t run = 1 + rng.next_below(12);
        for (std::size_t q = p; q < std::min(codes.size(), p + run); ++q) {
          codes[q] = seqio::kAmbiguous;
        }
      }
    }
    bank.add_codes("s" + std::to_string(i), codes);
  }
  return bank;
}

/// Random masked bits, plus the first and last bases of every sequence.
filter::MaskBitmap ragged_mask(simulate::Rng& rng,
                               const seqio::SequenceBank& bank) {
  filter::MaskBitmap mask(bank.data_size());
  for (std::size_t p = 0; p < bank.data_size(); ++p) {
    if (rng.next_bool(0.02)) mask.set(p);
  }
  for (std::size_t s = 0; s < bank.size(); ++s) {
    const std::size_t off = bank.offset(s);
    const std::size_t len = bank.length(s);
    mask.set_range(off, off + std::min<std::size_t>(len, 3));
    mask.set_range(off + len - std::min<std::size_t>(len, 2), off + len);
  }
  return mask;
}

/// Build with `w`/`stride`/`mask` and compare every output of the index
/// against a per-position code_at + any_in walk over sequence-local
/// offsets.
void expect_matches_brute_force(const seqio::SequenceBank& bank, int w,
                                int stride,
                                const filter::MaskBitmap* mask) {
  SCOPED_TRACE("w=" + std::to_string(w) + " stride=" +
               std::to_string(stride) + (mask ? " masked" : ""));
  const SeedCoder coder(w);
  IndexOptions opt;
  opt.stride = stride;
  opt.mask = mask;
  const BankIndex idx(bank, coder, opt);

  const auto data = bank.data();
  const auto uw = static_cast<std::size_t>(w);
  std::vector<std::pair<SeedCode, seqio::Pos>> words;
  filter::MaskBitmap bitmap(bank.data_size());
  for (std::size_t s = 0; s < bank.size(); ++s) {
    const std::size_t off = bank.offset(s);
    for (std::size_t local = 0; local + uw <= bank.length(s); ++local) {
      if (local % static_cast<std::size_t>(stride) != 0) continue;
      const auto code = coder.code_at(data, off + local);
      if (!code || (mask != nullptr && mask->any_in(off + local, uw))) {
        continue;
      }
      words.emplace_back(*code, static_cast<seqio::Pos>(off + local));
      bitmap.set(off + local);
    }
  }
  std::sort(words.begin(), words.end());

  ASSERT_EQ(idx.total_indexed(), words.size());
  ASSERT_EQ(idx.occurrence_offsets().size(), coder.num_seeds() + 1);
  EXPECT_EQ(idx.occurrence_offsets().front(), 0u);
  EXPECT_EQ(idx.occurrence_offsets().back(), words.size());
  EXPECT_EQ(idx.masked_bases(), mask != nullptr ? mask->count() : 0u);
  EXPECT_EQ(idx.indexed_bitmap().words(), bitmap.words());
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < words.size();) {
    const SeedCode code = words[i].first;
    std::vector<std::int32_t> expected;
    for (; i < words.size() && words[i].first == code; ++i) {
      expected.push_back(static_cast<std::int32_t>(words[i].second));
    }
    const auto got = idx.occurrences_span(code);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                           expected.end()))
        << "code " << code;
    ++distinct;
  }
  // Every listed position belongs to a checked code, so no other code
  // can hold any.
  EXPECT_EQ(idx.distinct_seeds(), distinct);
}

TEST(BankIndex, CountingSortBuildMatchesBruteForce) {
  for (const int w : {1, 4, 8, 11, 12}) {
    simulate::Rng rng(static_cast<std::uint64_t>(500 + w));
    const auto bank = ragged_bank(rng, w);
    const auto mask = ragged_mask(rng, bank);
    for (const int stride : {1, 2, w}) {
      expect_matches_brute_force(bank, w, stride, nullptr);
      expect_matches_brute_force(bank, w, stride, &mask);
    }
    const seqio::SequenceBank empty;
    expect_matches_brute_force(empty, w, 1, nullptr);
  }
}

TEST(BankIndex, MemoryBytesIsOffsetsPlusPositions) {
  simulate::Rng rng(23);
  const auto bank = ragged_bank(rng, 8);
  const SeedCoder coder(8);
  const BankIndex idx(bank, coder);
  EXPECT_EQ(idx.memory_bytes(),
            4 * (coder.num_seeds() + 1) + 4 * idx.total_indexed());
  EXPECT_EQ(idx.dictionary_bytes(), 4 * (coder.num_seeds() + 1));
  EXPECT_EQ(idx.chain_bytes(), 4 * idx.total_indexed());
  EXPECT_EQ(idx.occurrence_bytes(), 0u);
}

TEST(BankIndex, OffsetsBufferIsReusedAndMatchesOwnedBuild) {
  simulate::Rng rng(29);
  const auto first = ragged_bank(rng, 8);
  const auto second = ragged_bank(rng, 8);
  const SeedCoder coder(8);
  std::vector<std::uint32_t> buffer;
  IndexOptions opt;
  opt.offsets_buffer = &buffer;
  const std::uint32_t* storage = nullptr;
  for (const seqio::SequenceBank* bank : {&first, &second}) {
    const BankIndex owned(*bank, coder);
    const BankIndex borrowed(*bank, coder, opt);
    if (storage == nullptr) storage = buffer.data();
    // The second build reuses the first one's allocation.
    EXPECT_EQ(buffer.data(), storage);
    EXPECT_EQ(borrowed.occurrence_offsets().data(), buffer.data());
    EXPECT_TRUE(std::ranges::equal(borrowed.occurrence_offsets(),
                                   owned.occurrence_offsets()));
    EXPECT_TRUE(std::ranges::equal(borrowed.occurrence_positions(),
                                   owned.occurrence_positions()));
    EXPECT_EQ(borrowed.distinct_seeds(), owned.distinct_seeds());
  }
}

}  // namespace
}  // namespace scoris::index
