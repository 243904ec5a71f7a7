// Tests for binary serialization of banks and indexes.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "seqio/serialize.hpp"
#include "simulate/generators.hpp"
#include "simulate/rng.hpp"

namespace scoris {
namespace {

seqio::SequenceBank make_bank(std::uint64_t seed, int nseq) {
  simulate::Rng rng(seed);
  seqio::SequenceBank bank("serialized_bank");
  for (int i = 0; i < nseq; ++i) {
    bank.add_codes("seq_" + std::to_string(i),
                   simulate::random_codes(rng, 100 + rng.next_below(400)));
  }
  return bank;
}

TEST(BankSerialize, RoundTripIdentity) {
  const auto bank = make_bank(701, 7);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  const auto back = seqio::load_bank(buf);
  EXPECT_EQ(back.name(), bank.name());
  ASSERT_EQ(back.size(), bank.size());
  EXPECT_EQ(back.total_bases(), bank.total_bases());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    EXPECT_EQ(back.seq_name(i), bank.seq_name(i));
    EXPECT_EQ(back.bases(i), bank.bases(i));
    EXPECT_EQ(back.offset(i), bank.offset(i));
  }
  // Code arrays (including sentinels) must be byte-identical.
  const auto a = bank.data();
  const auto b = back.data();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(BankSerialize, PreservesAmbiguousBases) {
  seqio::SequenceBank bank("amb");
  bank.add("s", "ACGTNNNACGT");
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  EXPECT_EQ(seqio::load_bank(buf).bases(0), "ACGTNNNACGT");
}

TEST(BankSerialize, FileRoundTrip) {
  const auto bank = make_bank(703, 3);
  const std::string path = ::testing::TempDir() + "/scoris_bank.scob";
  seqio::save_bank_file(path, bank);
  const auto back = seqio::load_bank_file(path);
  EXPECT_EQ(back.size(), bank.size());
  EXPECT_EQ(back.bases(0), bank.bases(0));
}

TEST(BankSerialize, RejectsGarbage) {
  std::stringstream buf("not a bank at all");
  EXPECT_THROW((void)seqio::load_bank(buf), std::runtime_error);
}

TEST(BankSerialize, RejectsTruncated) {
  const auto bank = make_bank(707, 4);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)seqio::load_bank(cut), std::runtime_error);
}

TEST(BankSerialize, RejectsFutureVersionExplicitly) {
  const auto bank = make_bank(708, 2);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  std::string blob = buf.str();
  blob[4] = 99;  // version u32 starts right after the 4-byte magic
  std::stringstream patched(blob);
  try {
    (void)seqio::load_bank(patched);
    FAIL() << "bank from the future accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 99"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(BankSerialize, RejectsCorruptPayloadByChecksum) {
  const auto bank = make_bank(710, 3);
  std::stringstream buf;
  seqio::save_bank(buf, bank);
  std::string blob = buf.str();
  // Flip one byte in the middle of the SEQS payload (header is 12 bytes,
  // section framing 16): without the CRC this would load as a silently
  // different bank.
  blob[blob.size() / 2] ^= 0x01;
  std::stringstream patched(blob);
  try {
    (void)seqio::load_bank(patched);
    FAIL() << "corrupt bank accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(IndexSerialize, RoundTripBehavesIdentically) {
  const auto bank = make_bank(709, 6);
  const index::SeedCoder coder(9);
  const index::BankIndex original(bank, coder);
  std::stringstream buf;
  original.save(buf);
  const index::BankIndex loaded = index::BankIndex::load(buf, bank);

  EXPECT_EQ(loaded.w(), original.w());
  EXPECT_EQ(loaded.total_indexed(), original.total_indexed());
  EXPECT_EQ(loaded.distinct_seeds(), original.distinct_seeds());
  for (index::SeedCode c = 0; c < coder.num_seeds(); ++c) {
    const auto a = loaded.occurrences_span(c);
    const auto b = original.occurrences_span(c);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << c;
  }
  for (std::size_t p = 0; p < bank.data_size(); ++p) {
    EXPECT_EQ(loaded.is_indexed(static_cast<seqio::Pos>(p)),
              original.is_indexed(static_cast<seqio::Pos>(p)));
  }
}

TEST(IndexSerialize, RoundTripWithStrideAndMask) {
  seqio::SequenceBank bank("m");
  bank.add("s", std::string(60, 'A') + "ACGTACGTACGTACGTACGTACGT");
  const auto mask = filter::dust_mask(bank);
  index::IndexOptions opt;
  opt.stride = 2;
  opt.mask = &mask;
  const index::SeedCoder coder(6);
  const index::BankIndex original(bank, coder, opt);
  std::stringstream buf;
  original.save(buf);
  const auto loaded = index::BankIndex::load(buf, bank);
  EXPECT_EQ(loaded.total_indexed(), original.total_indexed());
  for (index::SeedCode c = 0; c < coder.num_seeds(); ++c) {
    std::vector<seqio::Pos> a, b;
    original.for_each(c, [&](seqio::Pos p) { a.push_back(p); });
    loaded.for_each(c, [&](seqio::Pos p) { b.push_back(p); });
    EXPECT_EQ(a, b);
  }
}

TEST(IndexSerialize, RejectsWrongBank) {
  const auto bank = make_bank(711, 4);
  const auto other = make_bank(712, 5);
  const index::BankIndex original(bank, index::SeedCoder(8));
  std::stringstream buf;
  original.save(buf);
  EXPECT_THROW((void)index::BankIndex::load(buf, other), std::runtime_error);
}

TEST(IndexSerialize, RejectsGarbage) {
  const auto bank = make_bank(713, 2);
  std::stringstream buf("garbage");
  EXPECT_THROW((void)index::BankIndex::load(buf, bank), std::runtime_error);
}

}  // namespace
}  // namespace scoris
