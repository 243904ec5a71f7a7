// Tests for the persistent index store (src/store/): the shared container
// format, .scix roundtrip bit-identity against FASTA-built runs, artifact
// corruption/rejection, and chunked streaming against a loaded index.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "compare/m8.hpp"
#include "core/chunked.hpp"
#include "core/pipeline.hpp"
#include "filter/dust.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/rng.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"
#include "test_helpers.hpp"

namespace scoris {
namespace {

seqio::SequenceBank make_bank(std::uint64_t seed, int nseq,
                              std::size_t min_len = 100) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank("store_bank");
  for (int i = 0; i < nseq; ++i) {
    bank.add_codes("seq_" + std::to_string(i),
                   simulate::random_codes(rng, min_len + rng.next_below(400)));
  }
  return bank;
}

/// A bank2 homologous to bank1 so the pipeline actually produces hits.
seqio::SequenceBank make_related_bank(const seqio::SequenceBank& bank1,
                                      std::uint64_t seed) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank2("store_bank2");
  const auto model = simulate::MutationModel::with_divergence(0.03);
  for (std::size_t i = 0; i < bank1.size(); ++i) {
    bank2.add_codes("mut_" + std::to_string(i),
                    simulate::mutate(rng, bank1.codes(i), model));
  }
  return bank2;
}

std::string store_blob(const seqio::SequenceBank& bank,
                       const std::vector<store::IndexKey>& keys) {
  std::stringstream buf;
  store::write_index(buf, bank, keys);
  return buf.str();
}

/// A key with word length `w`, every other setting at its default.
store::IndexKey key_w(int w, bool dust = true) {
  store::IndexKey key;
  key.w = w;
  key.dust = dust;
  return key;
}

store::IndexStore load_blob(const std::string& blob) {
  std::stringstream buf(blob);
  return store::load_index(buf, "index store");
}

std::string m8_of(const std::vector<align::GappedAlignment>& alignments,
                  const seqio::SequenceBank& b1,
                  const seqio::SequenceBank& b2) {
  std::ostringstream os;
  compare::write_m8(os, alignments, b1, b2);
  return os.str();
}

// --- container format -------------------------------------------------------

TEST(StoreFormat, Crc32MatchesKnownVector) {
  // The IEEE CRC-32 check value for the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(store::crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(store::crc32(digits, 0), 0u);
}

TEST(StoreFormat, SectionRoundTrip) {
  store::SectionWriter writer(store::make_tag("TEST"));
  writer.put_u32(42);
  writer.put_string("hello");
  writer.put_u64(1234567890123ull);
  const std::vector<std::int32_t> values = {-1, 0, 7};
  writer.put_array(std::span<const std::int32_t>(values));
  std::stringstream buf;
  writer.finish(buf);

  store::SectionReader reader(buf, "test");
  EXPECT_TRUE(reader.is(store::make_tag("TEST")));
  EXPECT_EQ(reader.read_u32(), 42u);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_u64(), 1234567890123ull);
  EXPECT_EQ(reader.read_array<std::int32_t>(), values);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(StoreFormat, OverreadingASectionThrows) {
  store::SectionWriter writer(store::make_tag("TINY"));
  writer.put_u32(1);
  std::stringstream buf;
  writer.finish(buf);
  store::SectionReader reader(buf, "test");
  (void)reader.read_u32();
  EXPECT_THROW((void)reader.read_u32(), std::runtime_error);
}

TEST(StoreFormat, ChecksumMismatchNamesTheSection) {
  store::SectionWriter writer(store::make_tag("SOME"));
  writer.put_u64(99);
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  writer.finish(buf);
  std::string blob = buf.str();
  ASSERT_TRUE(testing::corrupt_section(blob, "SOME"));

  std::stringstream cut(blob);
  (void)store::read_header(cut, store::make_tag("XTST"), 1, "test");
  try {
    store::SectionReader reader(cut, "test");
    FAIL() << "corrupt section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("SOME"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(StoreFormat, ByteSwappedFileDiagnosedAsEndiannessNotVersion) {
  // A big-endian writer stores version 1 as 00 00 00 01 and the endian tag
  // as 04 03 02 01; the reader must blame byte order, not claim the file
  // is "version 16777216 from a newer scoris".
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  std::string blob = buf.str();
  std::swap(blob[4], blob[7]);
  std::swap(blob[5], blob[6]);
  std::swap(blob[8], blob[11]);
  std::swap(blob[9], blob[10]);
  std::stringstream swapped(blob);
  try {
    (void)store::read_header(swapped, store::make_tag("XTST"), 1, "test");
    FAIL() << "byte-swapped header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos)
        << e.what();
  }
}

TEST(StoreFormat, OlderVersionRejectedAsOutdated) {
  // Pre-endian-tag v1 banks/indexes exist in the wild; their version field
  // reads fine but the next bytes are payload, so the version must be
  // checked first and blamed as outdated — not as an endianness problem.
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 1);
  try {
    (void)store::read_header(buf, store::make_tag("XTST"), 2, "test");
    FAIL() << "older version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 1"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("older"), std::string::npos);
  }
}

TEST(StoreFormat, CorruptSectionLengthReadsAsTruncated) {
  // A flipped high bit in the framing's u64 length must be caught against
  // the real stream size before the payload allocation, not surface as a
  // bad_alloc from a multi-EB resize.
  store::SectionWriter writer(store::make_tag("LENX"));
  writer.put_u64(7);
  std::stringstream buf;
  writer.finish(buf);
  std::string blob = buf.str();
  blob[10] = static_cast<char>(blob[10] | 0x40);  // length bytes 4..11
  std::stringstream bad(blob);
  try {
    store::SectionReader reader(bad, "test");
    FAIL() << "corrupt length accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("LENX"), std::string::npos);
  }
}

TEST(StoreFormat, HugeArrayCountReadsAsTruncated) {
  // A crafted count like 2^61 would overflow n * sizeof(u64) past the
  // bounds guard; it must surface as the truncation diagnostic, not as a
  // bad_alloc from a 2 EB vector.
  store::SectionWriter writer(store::make_tag("HUGE"));
  writer.put_u64(std::uint64_t{1} << 61);  // count with no elements behind
  std::stringstream buf;
  writer.finish(buf);
  store::SectionReader reader(buf, "test");
  try {
    (void)reader.read_array<std::uint64_t>();
    FAIL() << "absurd count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(StoreFormat, FutureVersionRejectedExplicitly) {
  std::stringstream buf;
  store::write_header(buf, store::make_tag("XTST"), 7);
  try {
    (void)store::read_header(buf, store::make_tag("XTST"), 2, "test");
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 7"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

// --- .scix bank roundtrip ---------------------------------------------------

TEST(IndexStoreBank, RoundTripsBitIdentical) {
  auto bank = make_bank(801, 6);
  bank.add("with_ambiguity", "ACGTNNNACGTRYACGTACGTACGT");
  const auto loaded = load_blob(store_blob(bank, {store::IndexKey{}}));

  const auto& back = loaded.bank();
  EXPECT_EQ(back.name(), bank.name());
  ASSERT_EQ(back.size(), bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(back.seq_name(i), bank.seq_name(i));
    EXPECT_EQ(back.offset(i), bank.offset(i));
    EXPECT_EQ(back.bases(i), bank.bases(i));
  }
  const auto a = bank.data();
  const auto b = back.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(IndexStoreBank, AmbiguityCodesCollapseToN) {
  // 2-bit packing cannot distinguish IUPAC letters; they all become
  // kAmbiguous, which decodes as N — same as the in-memory encoding.
  seqio::SequenceBank bank("amb");
  bank.add("s", "ACGTRYKMACGT");
  const auto loaded =
      load_blob(store_blob(bank, {key_w(4, /*dust=*/false)}));
  EXPECT_EQ(loaded.bank().bases(0), "ACGTNNNNACGT");
  EXPECT_EQ(loaded.bank().bases(0), bank.bases(0));
}

// --- adopted indexes --------------------------------------------------------

TEST(IndexStoreIndex, AdoptedIndexMatchesFreshBuild) {
  const auto bank = make_bank(803, 5);
  store::IndexKey key;
  key.w = 9;
  key.dust = true;
  const auto loaded = load_blob(store_blob(bank, {key}));
  const index::BankIndex* adopted = loaded.find(key);
  ASSERT_NE(adopted, nullptr);

  const auto mask = filter::dust_mask(bank, key.dust_params);
  index::IndexOptions iopt;
  iopt.mask = &mask;
  const index::BankIndex fresh(bank, index::SeedCoder(key.w), iopt);

  EXPECT_EQ(adopted->total_indexed(), fresh.total_indexed());
  EXPECT_EQ(adopted->distinct_seeds(), fresh.distinct_seeds());
  EXPECT_EQ(adopted->masked_bases(), fresh.masked_bases());
  EXPECT_EQ(adopted->memory_bytes(), fresh.memory_bytes());
  for (index::SeedCode c = 0; c < fresh.coder().num_seeds(); ++c) {
    std::vector<seqio::Pos> a, b;
    adopted->for_each(c, [&](seqio::Pos p) { a.push_back(p); });
    fresh.for_each(c, [&](seqio::Pos p) { b.push_back(p); });
    ASSERT_EQ(a, b) << "seed code " << c;
  }
  for (std::size_t p = 0; p < bank.data_size(); ++p) {
    ASSERT_EQ(adopted->is_indexed(static_cast<seqio::Pos>(p)),
              fresh.is_indexed(static_cast<seqio::Pos>(p)));
  }
}

TEST(IndexStoreIndex, OccurrenceListsRideTheArtifact) {
  // New artifacts serialize the flattened occurrence lists as trailing
  // INDX payload fields; the adopted index must expose the same CSR view
  // as a fresh build (same spans, counts, byte accounting).
  const auto bank = make_bank(812, 5);
  store::IndexKey key;
  const auto loaded = load_blob(store_blob(bank, {key}));
  const index::BankIndex* adopted = loaded.find(key);
  ASSERT_NE(adopted, nullptr);

  const auto mask = filter::dust_mask(bank, key.dust_params);
  index::IndexOptions iopt;
  iopt.mask = &mask;
  const index::BankIndex fresh(bank, index::SeedCoder(key.w), iopt);

  EXPECT_EQ(adopted->occurrence_bytes(), fresh.occurrence_bytes());
  ASSERT_EQ(adopted->occurrence_offsets().size(),
            fresh.occurrence_offsets().size());
  for (index::SeedCode c = 0; c < fresh.coder().num_seeds(); ++c) {
    const auto a = adopted->occurrences_span(c);
    const auto b = fresh.occurrences_span(c);
    ASSERT_EQ(a.size(), b.size()) << "seed code " << c;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "seed code " << c;
    ASSERT_EQ(adopted->occurrence_count(c), fresh.occurrence_count(c));
  }
}

TEST(IndexStoreIndex, BareIndexRoundTripsOccurrenceLists) {
  const auto bank = make_bank(813, 4);
  const index::SeedCoder coder(8);
  const index::BankIndex fresh(bank, coder);

  std::stringstream buf;
  fresh.save(buf);
  const auto loaded = index::BankIndex::load(buf, bank);
  ASSERT_EQ(loaded.total_indexed(), fresh.total_indexed());
  for (index::SeedCode c = 0; c < coder.num_seeds(); ++c) {
    const auto a = loaded.occurrences_span(c);
    const auto b = fresh.occurrences_span(c);
    ASSERT_EQ(a.size(), b.size()) << "seed code " << c;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "seed code " << c;
  }
}

/// The paper's dictionary (first occurrence per code, -1 = absent) and
/// per-position chain (next occurrence, -1 = last), as the chain-layout
/// bodies stored them.
struct LegacyChains {
  std::vector<std::int32_t> first;
  std::vector<std::int32_t> next;
};

LegacyChains legacy_chains(const index::BankIndex& idx) {
  LegacyChains chains{
      std::vector<std::int32_t>(idx.coder().num_seeds(), -1),
      std::vector<std::int32_t>(idx.bank().data_size(), -1)};
  for (index::SeedCode c = 0; c < idx.coder().num_seeds(); ++c) {
    const auto occ = idx.occurrences_span(c);
    if (occ.empty()) continue;
    chains.first[c] = occ.front();
    for (std::size_t i = 0; i + 1 < occ.size(); ++i) {
      chains.next[static_cast<std::size_t>(occ[i])] = occ[i + 1];
    }
  }
  return chains;
}

/// A version-2 bare index file in the chain layout: counters, dictionary,
/// chain, bitmap, and — when `with_lists` — the trailing CSR lists.
std::string legacy_index_blob(const index::BankIndex& idx, bool with_lists) {
  const LegacyChains chains = legacy_chains(idx);
  std::stringstream buf;
  store::write_header(buf, store::make_tag("SCOI"), 2);
  store::SectionWriter section(store::make_tag("INDX"));
  section.put_u32(static_cast<std::uint32_t>(idx.w()));
  section.put_u64(idx.bank().data_size());
  section.put_u64(idx.total_indexed());
  section.put_u64(idx.distinct_seeds());
  section.put_u64(idx.masked_bases());
  section.put_array(std::span<const std::int32_t>(chains.first));
  section.put_array(std::span<const std::int32_t>(chains.next));
  section.put_array(
      std::span<const std::uint64_t>(idx.indexed_bitmap().words()));
  section.put_u64(idx.indexed_bitmap().size());
  if (with_lists) {
    section.put_array(idx.occurrence_offsets());
    section.put_array(idx.occurrence_positions());
  }
  section.finish(buf);
  return buf.str();
}

void expect_same_lists(const index::BankIndex& loaded,
                       const index::BankIndex& fresh) {
  EXPECT_EQ(loaded.total_indexed(), fresh.total_indexed());
  EXPECT_EQ(loaded.distinct_seeds(), fresh.distinct_seeds());
  ASSERT_EQ(loaded.occurrence_offsets().size(),
            fresh.coder().num_seeds() + 1);
  ASSERT_EQ(loaded.occurrence_positions().size(), fresh.total_indexed());
  for (index::SeedCode c = 0; c < fresh.coder().num_seeds(); ++c) {
    const auto a = loaded.occurrences_span(c);
    const auto b = fresh.occurrences_span(c);
    ASSERT_EQ(a.size(), b.size()) << "seed code " << c;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
        << "seed code " << c;
  }
  for (std::size_t p = 0; p < fresh.bank().data_size(); ++p) {
    ASSERT_EQ(loaded.is_indexed(static_cast<seqio::Pos>(p)),
              fresh.is_indexed(static_cast<seqio::Pos>(p)));
  }
}

TEST(IndexStoreIndex, LegacyArtifactWithoutOccurrenceListsStillLoads) {
  // Artifacts written before the occurrence lists existed stop after the
  // bitmap size; load_body must fall back to rebuilding the lists from
  // the bank and the word-start bitmap.  Hand-write that old body layout.
  const auto bank = make_bank(814, 4);
  const index::SeedCoder coder(8);
  const index::BankIndex fresh(bank, coder);

  std::stringstream buf(legacy_index_blob(fresh, /*with_lists=*/false));
  const auto loaded = index::BankIndex::load(buf, bank);
  expect_same_lists(loaded, fresh);
}

TEST(IndexStoreIndex, LegacyArtifactWithOccurrenceListsSkipsChains) {
  // Chain-layout bodies that also carry the trailing lists adopt the
  // lists and skip the chains.  A stride and a mask make the bitmap
  // differ from "every word", so a rebuild would be caught.
  const auto bank = make_bank(815, 4);
  const auto mask = filter::dust_mask(bank);
  index::IndexOptions iopt;
  iopt.stride = 2;
  iopt.mask = &mask;
  const index::BankIndex fresh(bank, index::SeedCoder(8), iopt);

  std::stringstream buf(legacy_index_blob(fresh, /*with_lists=*/true));
  const auto loaded = index::BankIndex::load(buf, bank);
  expect_same_lists(loaded, fresh);
  EXPECT_EQ(loaded.masked_bases(), fresh.masked_bases());
  EXPECT_EQ(loaded.memory_bytes(), fresh.memory_bytes());
}

TEST(IndexStoreIndex, MultiplePayloadsAreKeyed) {
  const auto bank = make_bank(805, 4);
  store::IndexKey k11;  // defaults: w=11 stride=1 dust=on
  store::IndexKey k10;
  k10.w = 10;
  k10.dust = false;
  const auto loaded = load_blob(store_blob(bank, {k11, k10}));

  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_NE(loaded.find(k11), nullptr);
  EXPECT_NE(loaded.find(k10), nullptr);
  EXPECT_EQ(loaded.find(k11)->w(), 11);
  EXPECT_EQ(loaded.find(k10)->w(), 10);

  store::IndexKey missing;
  missing.w = 8;
  EXPECT_EQ(loaded.find(missing), nullptr);
  try {
    (void)loaded.require(missing);
    FAIL() << "missing payload accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("w=8"), std::string::npos);   // wanted
    EXPECT_NE(what.find("w=11"), std::string::npos);  // available
    EXPECT_NE(what.find("w=10"), std::string::npos);
  }
}

TEST(IndexStoreIndex, DustSettingIsPartOfTheKey) {
  const auto bank = make_bank(807, 3);
  store::IndexKey with_dust;
  const auto loaded = load_blob(store_blob(bank, {with_dust}));
  store::IndexKey no_dust;
  no_dust.dust = false;
  EXPECT_EQ(loaded.find(no_dust), nullptr);
  EXPECT_THROW((void)loaded.require(no_dust), std::runtime_error);
}

// --- search bit-identity ----------------------------------------------------

TEST(IndexStoreSearch, HitsBitIdenticalToFastaRun) {
  const auto bank1 = make_bank(809, 8, 200);
  const auto bank2 = make_related_bank(bank1, 810);
  const auto loaded = load_blob(store_blob(bank1, {store::IndexKey{}}));
  const index::BankIndex& idx1 = loaded.require(store::IndexKey{});

  for (const int threads : {1, 4}) {
    core::Options options;
    options.threads = threads;
    const core::Pipeline pipeline(options);
    const core::Result direct = pipeline.run(bank1, bank2);
    const core::Result from_store = pipeline.run(idx1, bank2);

    EXPECT_EQ(from_store.stats.hit_pairs, direct.stats.hit_pairs);
    EXPECT_EQ(from_store.stats.hsps, direct.stats.hsps);
    EXPECT_EQ(from_store.stats.masked_bases, direct.stats.masked_bases);
    EXPECT_EQ(m8_of(from_store.alignments, loaded.bank(), bank2),
              m8_of(direct.alignments, bank1, bank2))
        << "threads=" << threads;
  }
}

TEST(IndexStoreSearch, BothStrandsReuseThePrebuiltIndex) {
  const auto bank1 = make_bank(811, 6, 150);
  const auto bank2 = make_related_bank(bank1, 812);
  const auto loaded = load_blob(store_blob(bank1, {store::IndexKey{}}));

  core::Options options;
  options.strand = seqio::Strand::kBoth;
  const core::Pipeline pipeline(options);
  const core::Result direct = pipeline.run(bank1, bank2);
  const core::Result from_store =
      pipeline.run(loaded.require(store::IndexKey{}), bank2);
  EXPECT_EQ(m8_of(from_store.alignments, loaded.bank(), bank2),
            m8_of(direct.alignments, bank1, bank2));
}

TEST(IndexStoreSearch, PipelineRejectsWordLengthMismatch) {
  const auto bank1 = make_bank(813, 3);
  store::IndexKey k9;
  k9.w = 9;
  const auto loaded = load_blob(store_blob(bank1, {k9}));
  core::Options options;  // w = 11
  const core::Pipeline pipeline(options);
  EXPECT_THROW((void)pipeline.run(loaded.index(0), bank1),
               std::invalid_argument);
}

// --- chunked streaming against a loaded index -------------------------------

TEST(IndexStoreSearch, ChunkedStreamingBitIdentical) {
  const auto bank1 = make_bank(815, 6, 200);
  const auto bank2 = make_related_bank(bank1, 816);
  const auto loaded = load_blob(store_blob(bank1, {store::IndexKey{}}));
  const index::BankIndex& idx1 = loaded.require(store::IndexKey{});

  core::ChunkedOptions copt;
  copt.min_chunks = 4;  // force slicing regardless of the budget
  const core::ChunkedResult chunked = core::run_chunked(idx1, bank2, copt);
  EXPECT_GT(chunked.chunks, 1u);

  const core::Result whole = core::Pipeline(copt.pipeline).run(bank1, bank2);
  EXPECT_EQ(m8_of(chunked.alignments, loaded.bank(), bank2),
            m8_of(whole.alignments, bank1, bank2));
  EXPECT_EQ(chunked.stats.hit_pairs, whole.stats.hit_pairs);
  EXPECT_EQ(chunked.stats.hsps, whole.stats.hsps);
}

TEST(IndexStoreSearch, ChunkedBudgetCountsTheLoadedIndex) {
  const auto bank1 = make_bank(817, 10, 500);
  const auto bank2 = make_related_bank(bank1, 818);
  const auto loaded = load_blob(store_blob(bank1, {store::IndexKey{}}));
  const index::BankIndex& idx1 = loaded.require(store::IndexKey{});

  core::ChunkedOptions tight;
  tight.memory_budget_bytes = idx1.memory_bytes();  // no room for bank2
  const auto r_tight = core::run_chunked(idx1, bank2, tight);
  core::ChunkedOptions loose;
  loose.memory_budget_bytes = std::size_t{4} << 30;
  const auto r_loose = core::run_chunked(idx1, bank2, loose);
  EXPECT_GT(r_tight.chunks, 1u);
  EXPECT_EQ(r_loose.chunks, 1u);
  EXPECT_EQ(m8_of(r_tight.alignments, loaded.bank(), bank2),
            m8_of(r_loose.alignments, loaded.bank(), bank2));
}

// --- artifact rejection -----------------------------------------------------

TEST(IndexStoreReject, WrongMagic) {
  std::stringstream buf("garbage that is not an artifact");
  try {
    (void)store::load_index(buf, "index store");
    FAIL() << "garbage accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(IndexStoreReject, TruncatedAtEveryQuarter) {
  const auto bank = make_bank(819, 4);
  const std::string blob = store_blob(bank, {key_w(8)});
  for (const std::size_t num : {1u, 2u, 3u}) {
    std::stringstream cut(blob.substr(0, blob.size() * num / 4));
    EXPECT_THROW((void)store::load_index(cut, "index store"),
                 std::runtime_error)
        << "prefix " << num << "/4 accepted";
  }
}

TEST(IndexStoreReject, CorruptBankSectionNamedInDiagnostic) {
  const auto bank = make_bank(821, 4);
  std::string blob = store_blob(bank, {key_w(8)});
  ASSERT_TRUE(testing::corrupt_section(blob, "BANK"));
  try {
    (void)load_blob(blob);
    FAIL() << "corrupt BANK accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("BANK"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(IndexStoreReject, CorruptIndexSectionNamedInDiagnostic) {
  const auto bank = make_bank(823, 4);
  std::string blob = store_blob(bank, {key_w(8)});
  ASSERT_TRUE(testing::corrupt_section(blob, "INDX"));
  try {
    (void)load_blob(blob);
    FAIL() << "corrupt INDX accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("INDX"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(IndexStoreReject, FutureVersionNamedInDiagnostic) {
  const auto bank = make_bank(825, 2);
  std::string blob = store_blob(bank, {key_w(8)});
  blob[4] = 99;  // version u32 starts at byte 4
  try {
    (void)load_blob(blob);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(IndexStoreReject, InconsistentIndexBodyRejected) {
  // CRC-valid bodies whose sizes disagree must be rejected at load, before
  // a bitmap test or an occurrence slice can read past its buffer.
  const auto bank = make_bank(826, 2);
  const index::BankIndex fresh(bank, index::SeedCoder(6));
  const auto words = fresh.indexed_bitmap().words();
  const auto offsets = fresh.occurrence_offsets();
  const auto blob = [&](std::size_t word_count, std::size_t total) {
    std::stringstream buf;
    store::write_header(buf, store::make_tag("SCOI"), 3);
    store::SectionWriter section(store::make_tag("INDX"));
    section.put_u32(6);
    section.put_u64(bank.data_size());
    section.put_u64(total);
    section.put_u64(fresh.distinct_seeds());
    section.put_u64(0);
    section.put_array(std::span<const std::uint64_t>(words.data(), word_count));
    section.put_u64(fresh.indexed_bitmap().size());
    section.put_array(offsets);
    section.put_array(fresh.occurrence_positions().first(total));
    section.finish(buf);
    return buf.str();
  };
  const std::size_t total = fresh.total_indexed();
  ASSERT_GT(words.size(), 1u);
  ASSERT_GT(total, 1u);
  std::stringstream good(blob(words.size(), total));
  EXPECT_EQ(index::BankIndex::load(good, bank).total_indexed(), total);
  std::stringstream short_bitmap(blob(words.size() - 1, total));
  EXPECT_THROW((void)index::BankIndex::load(short_bitmap, bank),
               std::runtime_error);
  std::stringstream short_lists(blob(words.size(), total - 1));
  EXPECT_THROW((void)index::BankIndex::load(short_lists, bank),
               std::runtime_error);
}

TEST(IndexStoreReject, BadOffsetOrPositionRejected) {
  // CRC-valid bodies of the right sizes whose one offset points 100 past
  // the positions, or whose one position names a word outside the bank,
  // must be rejected at load: an occurrence slice would otherwise read
  // out of bounds.
  const auto bank = make_bank(828, 2);
  const index::BankIndex fresh(bank, index::SeedCoder(6));
  const std::size_t total = fresh.total_indexed();
  const auto blob = [&](std::span<const std::uint32_t> offsets,
                        std::span<const std::int32_t> positions) {
    std::stringstream buf;
    store::write_header(buf, store::make_tag("SCOI"), 3);
    store::SectionWriter section(store::make_tag("INDX"));
    section.put_u32(6);
    section.put_u64(bank.data_size());
    section.put_u64(total);
    section.put_u64(fresh.distinct_seeds());
    section.put_u64(0);
    section.put_array(
        std::span<const std::uint64_t>(fresh.indexed_bitmap().words()));
    section.put_u64(fresh.indexed_bitmap().size());
    section.put_array(offsets);
    section.put_array(positions);
    section.finish(buf);
    return buf;
  };
  const auto good_offsets = fresh.occurrence_offsets();
  const auto good_positions = fresh.occurrence_positions();
  std::stringstream good = blob(good_offsets, good_positions);
  EXPECT_EQ(index::BankIndex::load(good, bank).total_indexed(), total);

  std::vector<std::uint32_t> offsets(good_offsets.begin(), good_offsets.end());
  offsets[offsets.size() / 2] = static_cast<std::uint32_t>(total + 100);
  std::stringstream bad_offset = blob(offsets, good_positions);
  EXPECT_THROW((void)index::BankIndex::load(bad_offset, bank),
               std::runtime_error);

  std::vector<std::int32_t> positions(good_positions.begin(),
                                      good_positions.end());
  ASSERT_GT(positions.size(), 1u);
  positions.front() = -1;
  std::stringstream negative = blob(good_offsets, positions);
  EXPECT_THROW((void)index::BankIndex::load(negative, bank),
               std::runtime_error);
  // The last word that fits starts at data_size - W; one past it spills.
  positions.front() = static_cast<std::int32_t>(bank.data_size() - 6 + 1);
  std::stringstream past_end = blob(good_offsets, positions);
  EXPECT_THROW((void)index::BankIndex::load(past_end, bank),
               std::runtime_error);
  positions.front() = static_cast<std::int32_t>(bank.data_size() - 6);
  std::stringstream last_word = blob(good_offsets, positions);
  EXPECT_EQ(index::BankIndex::load(last_word, bank).total_indexed(), total);
}

TEST(IndexStoreReject, EmptyKeyListAndBadW) {
  const auto bank = make_bank(827, 2);
  std::stringstream buf;
  EXPECT_THROW(store::write_index(buf, bank, {}), std::invalid_argument);
  store::IndexKey bad;
  bad.w = 14;  // dictionary too large for the int32 chain format
  EXPECT_THROW(store::write_index(buf, bank, {&bad, 1}),
               std::invalid_argument);
}

TEST(IndexStoreReject, FileHelpersReportPath) {
  EXPECT_THROW((void)store::load_index("/nonexistent/path.scix"),
               std::runtime_error);
}

}  // namespace
}  // namespace scoris
