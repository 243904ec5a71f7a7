// Seed-corpus generator: writes one directory of seed inputs per fuzz
// target under the output root given as argv[1] (the checked-in
// `fuzz/corpus/` tree is this program's output).  Seeds are built with
// the repo's own writers, so every format change regenerates a valid
// corpus with `scoris_fuzz_seed_gen fuzz/corpus` instead of hand-edited
// hex — plus deliberate mutants (truncations, flipped bytes, future
// versions, lying lengths) that pin the error paths the regression test
// replays.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "align/records.hpp"
#include "core/exec/run_merge.hpp"
#include "core/options.hpp"
#include "dist/protocol.hpp"
#include "filter/dust.hpp"
#include "index/bank_index.hpp"
#include "net/frame.hpp"
#include "seqio/fasta.hpp"
#include "store/format.hpp"
#include "store/index_store.hpp"

namespace fs = std::filesystem;
using namespace scoris;

namespace {

void write_seed(const fs::path& dir, const std::string& name,
                const std::string& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    throw std::runtime_error("cannot write seed: " + (dir / name).string());
  }
}

std::string frame_bytes(const net::FrameTag& tag,
                        const std::vector<std::uint8_t>& payload) {
  std::string out(tag.data(), tag.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(reinterpret_cast<const char*>(payload.data()), payload.size());
  return out;
}

std::string flip_byte(std::string bytes, std::size_t at) {
  bytes.at(at) = static_cast<char>(bytes.at(at) ^ 0x40);
  return bytes;
}

void gen_frame(const fs::path& dir) {
  net::PayloadWriter hello;
  hello.put_u32(net::kProtocolVersion);
  hello.put_u64(std::uint64_t{64} << 20);
  const std::string helo = frame_bytes(net::kHelloTag, hello.take());

  net::PayloadWriter done;
  done.put_u64(42);
  done.put_u64(4096);
  done.put_f64(0.125);

  net::PayloadWriter err;
  err.put_string("bad FASTA: no sequences");

  write_seed(dir, "helo", helo);
  write_seed(dir, "rows",
             frame_bytes(net::kRowsTag,
                         {'q', '\t', 's', '\t', '9', '9', '\n'}));
  write_seed(dir, "done_v2", frame_bytes(net::kDoneTag, done.take()));
  write_seed(dir, "err", frame_bytes(net::kErrorTag, err.take()));
  write_seed(dir, "stat_empty", frame_bytes(net::kStatTag, {}));
  // Two frames back to back: read_frame must stop cleanly at EOF.
  write_seed(dir, "two_frames",
             helo + frame_bytes(net::kStatTag, {}));
  // Header promises 8 payload bytes, stream carries 3.
  write_seed(dir, "truncated_payload",
             frame_bytes(net::kRowsTag, {1, 2, 3, 4, 5, 6, 7, 8})
                 .substr(0, 11));
  // Length prefix far past kMaxFramePayload: must throw, not allocate.
  {
    std::string oversized = "ROWS";
    const std::uint32_t len = 0x7FFFFFFFu;
    oversized.append(reinterpret_cast<const char*>(&len), sizeof(len));
    oversized.append("xx");
    write_seed(dir, "oversized_length", oversized);
  }
  write_seed(dir, "garbage_tag", std::string("\xFF\xFE\x00Z\x04\x00\x00\x00"
                                             "abcd", 12));
  write_seed(dir, "short_header", std::string("HE", 2));
}

void gen_dist_options(const fs::path& dir) {
  core::Options options;
  net::PayloadWriter blob;
  dist::write_options(blob, options);
  const std::vector<std::uint8_t> opt = blob.take();

  auto with_selector = [](std::uint8_t sel, std::vector<std::uint8_t> body) {
    std::string out(1, static_cast<char>(sel));
    out.append(reinterpret_cast<const char*>(body.data()), body.size());
    return out;
  };

  write_seed(dir, "options_v1", with_selector(0, opt));
  // Version field bumped past kOptionsBlobVersion: the worker must
  // refuse a future coordinator's blob with a named NetError.
  {
    std::vector<std::uint8_t> future = opt;
    future.at(0) = 0x63;
    write_seed(dir, "options_future_version", with_selector(0, future));
  }
  write_seed(dir, "options_truncated",
             with_selector(0, {opt.begin(), opt.begin() + 5}));

  net::PayloadWriter group;
  dist::write_group(group, dist::GroupTask{7, true, 3, 9});
  write_seed(dir, "group", with_selector(1, group.take()));

  net::PayloadWriter end;
  dist::write_group_end(end, dist::GroupEnd{7, 1234, 99999});
  write_seed(dir, "group_end", with_selector(2, end.take()));
  write_seed(dir, "empty_payload", std::string(1, '\x01'));
}

/// A version-1 .scix in the chain layout: the same BANK section as
/// `scix`, then an INDX body holding the paper's dictionary and chain
/// ahead of the bitmap and the CSR lists, so the fuzzer keeps reaching
/// the compatibility branch of the loader.
std::string legacy_chain_scix(const std::string& scix,
                              const seqio::SequenceBank& bank,
                              const store::IndexKey& key) {
  filter::MaskBitmap mask = filter::dust_mask(bank, key.dust_params);
  index::IndexOptions iopt;
  iopt.mask = &mask;
  const index::BankIndex idx(bank, index::SeedCoder(key.w), iopt);
  std::vector<std::int32_t> first(idx.coder().num_seeds(), -1);
  std::vector<std::int32_t> next(bank.data_size(), -1);
  for (index::SeedCode c = 0; c < idx.coder().num_seeds(); ++c) {
    const auto occ = idx.occurrences_span(c);
    if (occ.empty()) continue;
    first[c] = occ.front();
    for (std::size_t i = 0; i + 1 < occ.size(); ++i) {
      next[static_cast<std::size_t>(occ[i])] = occ[i + 1];
    }
  }

  // Header (magic, version, endianness tag), then the BANK section framed
  // as [tag 4][payload length u64][crc32 u32][payload].
  constexpr std::size_t kHeader = 12;
  constexpr std::size_t kFrame = 16;
  std::uint64_t bank_payload = 0;
  std::memcpy(&bank_payload, scix.data() + kHeader + 4, sizeof(bank_payload));
  std::ostringstream os(std::ios::binary);
  store::write_header(os, store::make_tag("SCIX"), 1);
  os << scix.substr(kHeader, kFrame + bank_payload);

  store::SectionWriter section(store::make_tag("INDX"));
  section.put_u32(static_cast<std::uint32_t>(key.w));
  section.put_u32(static_cast<std::uint32_t>(key.stride));
  section.put_u32(1);
  section.put_u32(static_cast<std::uint32_t>(key.dust_params.window));
  section.put_u32(static_cast<std::uint32_t>(key.dust_params.level));
  section.put_u64(bank.data_size());
  section.put_u64(idx.total_indexed());
  section.put_u64(idx.distinct_seeds());
  section.put_u64(idx.masked_bases());
  section.put_array(std::span<const std::int32_t>(first));
  section.put_array(std::span<const std::int32_t>(next));
  section.put_array(
      std::span<const std::uint64_t>(idx.indexed_bitmap().words()));
  section.put_u64(idx.indexed_bitmap().size());
  section.put_array(idx.occurrence_offsets());
  section.put_array(idx.occurrence_positions());
  section.finish(os);
  return os.str();
}

void gen_scix(const fs::path& dir) {
  seqio::SequenceBank bank = seqio::read_fasta_string(
      ">r1 first\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
      ">r2 second\nTTTTGGGGCCCCAAAATTTTGGGGCCCCAAAA\n",
      "seed-bank");
  store::IndexKey key;
  key.w = 8;
  std::ostringstream os(std::ios::binary);
  store::write_index(os, bank, {&key, 1});
  const std::string scix = os.str();
  write_seed(dir, "legacy_chains", legacy_chain_scix(scix, bank, key));

  write_seed(dir, "valid", scix);
  write_seed(dir, "truncated_half", scix.substr(0, scix.size() / 2));
  write_seed(dir, "truncated_header", scix.substr(0, 9));
  // Flip a payload byte well past the section headers: CRC must catch it.
  write_seed(dir, "crc_flipped", flip_byte(scix, scix.size() / 2));
  // Container version bumped (bytes 4..7 follow the 4-byte magic).
  write_seed(dir, "future_version", flip_byte(scix, 4));
  write_seed(dir, "wrong_magic", flip_byte(scix, 0));
}

void gen_spill_run(const fs::path& dir) {
  std::vector<align::GappedAlignment> run(5);
  for (std::size_t i = 0; i < run.size(); ++i) {
    auto& a = run[i];
    a.s1 = static_cast<seqio::Pos>(10 * i);
    a.e1 = a.s1 + 20;
    a.s2 = static_cast<seqio::Pos>(5 * i);
    a.e2 = a.s2 + 20;
    a.score = static_cast<std::int32_t>(100 - i);
    a.seq1 = static_cast<std::uint32_t>(i);
    a.seq2 = static_cast<std::uint32_t>(i + 1);
    a.minus = (i % 2) != 0;
  }
  std::ostringstream os(std::ios::binary);
  (void)core::exec::write_spill_run(os, run, 2);  // several RUNB blocks
  const std::string spill = os.str();

  write_seed(dir, "valid", spill);
  write_seed(dir, "truncated_mid_block", spill.substr(0, spill.size() - 7));
  write_seed(dir, "truncated_header", spill.substr(0, 10));
  write_seed(dir, "crc_flipped", flip_byte(spill, spill.size() - 3));
  write_seed(dir, "future_version", flip_byte(spill, 4));
  // RHDR count field inflated: blocks deliver fewer elements than the
  // header promises — the reader must diagnose, not merge short.
  write_seed(dir, "lying_count", flip_byte(spill, 20));
}

void gen_fasta(const fs::path& dir) {
  write_seed(dir, "valid_two_seqs",
             ">a desc\nACGTACGT\nACGT\n>b\nTTTTAAAA\n");
  write_seed(dir, "lowercase_and_n", ">x\nacgtnNACGT\n");
  write_seed(dir, "crlf", ">w\r\nACGT\r\n");
  write_seed(dir, "header_only", ">lonely header\n");
  write_seed(dir, "no_header", "ACGTACGT\n");
  write_seed(dir, "empty", "");
  write_seed(dir, "blank_lines", ">a\n\nAC\n\nGT\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <corpus output root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  try {
    gen_frame(root / "frame");
    gen_dist_options(root / "dist_options");
    gen_scix(root / "scix");
    gen_spill_run(root / "spill_run");
    gen_fasta(root / "fasta");
  } catch (const std::exception& e) {
    std::cerr << "seed generation failed: " << e.what() << '\n';
    return 1;
  }
  std::cout << "seed corpus written under " << root << '\n';
  return 0;
}
