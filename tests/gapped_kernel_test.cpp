// Differential tests for the step-3 kernels: align::extend_gapped and
// align::banded_global_stats must reproduce the reference copies in
// gapped_reference.hpp exactly — the same extents and scores, the same
// five AlignmentStats fields, and the same column operations, tie-breaks
// included — on random and mutated pairs, ambiguous bases and sentinels,
// max_extent clipping, degenerate rectangles and real step-2 HSPs.  The
// kernels keep per-thread scratch, so one case also runs from several
// threads at once (the ThreadSanitizer job runs this suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "align/gapped.hpp"
#include "core/ordered_extend.hpp"
#include "gapped_reference.hpp"
#include "index/bank_index.hpp"
#include "simulate/generators.hpp"
#include "simulate/mutate.hpp"
#include "simulate/paper_datasets.hpp"
#include "simulate/rng.hpp"

namespace scoris {
namespace {

using align::AlignmentStats;
using align::AlignOp;
using align::GappedExtent;
using align::ScoringParams;
using seqio::Code;
using seqio::kAmbiguous;
using seqio::kSentinel;
using seqio::Pos;
using Codes = std::basic_string<Code>;

std::string describe(const GappedExtent& x) {
  return "[" + std::to_string(x.s1) + "," + std::to_string(x.e1) + ")x[" +
         std::to_string(x.s2) + "," + std::to_string(x.e2) +
         ") score " + std::to_string(x.score);
}

/// banded_global_stats over one rectangle, production against reference,
/// with and without the optional outputs.
::testing::AssertionResult same_stats(std::span<const Code> seq1, Pos s1,
                                      Pos e1, std::span<const Code> seq2,
                                      Pos s2, Pos e2,
                                      const ScoringParams& params) {
  std::int32_t got_score = -1;
  std::int32_t want_score = -2;
  std::vector<AlignOp> got_ops{AlignOp::kMatch};
  std::vector<AlignOp> want_ops;
  const AlignmentStats got = align::banded_global_stats(
      seq1, s1, e1, seq2, s2, e2, params, &got_score, &got_ops);
  const AlignmentStats want = testing::reference::banded_global_stats(
      seq1, s1, e1, seq2, s2, e2, params, &want_score, &want_ops);
  const AlignmentStats bare =
      align::banded_global_stats(seq1, s1, e1, seq2, s2, e2, params);
  const auto fields = [](const AlignmentStats& st) {
    return std::tuple(st.length, st.matches, st.mismatches, st.gap_opens,
                      st.gap_columns);
  };
  const std::string where = "rectangle [" + std::to_string(s1) + "," +
                            std::to_string(e1) + ")x[" + std::to_string(s2) +
                            "," + std::to_string(e2) + ")";
  if (got_score != want_score) {
    return ::testing::AssertionFailure()
           << where << ": score " << got_score << " vs " << want_score;
  }
  if (fields(got) != fields(want) || fields(bare) != fields(want)) {
    return ::testing::AssertionFailure()
           << where << ": stats (len/match/mis/opens/gaps) " << got.length
           << "/" << got.matches << "/" << got.mismatches << "/"
           << got.gap_opens << "/" << got.gap_columns << " vs "
           << want.length << "/" << want.matches << "/" << want.mismatches
           << "/" << want.gap_opens << "/" << want.gap_columns;
  }
  if (got_ops != want_ops) {
    return ::testing::AssertionFailure() << where << ": column ops differ";
  }
  return ::testing::AssertionSuccess();
}

/// extend_gapped from one anchor, then the stats of its rectangle.
::testing::AssertionResult same_extension(std::span<const Code> seq1,
                                          std::span<const Code> seq2,
                                          Pos mid1, Pos mid2,
                                          const ScoringParams& params,
                                          std::size_t max_extent = 1u << 20) {
  const GappedExtent got =
      align::extend_gapped(seq1, seq2, mid1, mid2, params, max_extent);
  const GappedExtent want = testing::reference::extend_gapped(
      seq1, seq2, mid1, mid2, params, max_extent);
  if (std::tie(got.s1, got.e1, got.s2, got.e2, got.score) !=
      std::tie(want.s1, want.e1, want.s2, want.e2, want.score)) {
    return ::testing::AssertionFailure()
           << "anchor (" << mid1 << "," << mid2 << ") max_extent "
           << max_extent << ": " << describe(got) << " vs "
           << describe(want);
  }
  return same_stats(seq1, got.s1, got.e1, seq2, got.s2, got.e2, params);
}

/// A bank-like buffer: sentinel, the codes, sentinel.
Codes framed(const Codes& codes) {
  return Codes(1, kSentinel) + codes + Codes(1, kSentinel);
}

/// Scoring systems the kernels must agree under: the BLASTN defaults and
/// variants that move the band width and the tie structure.
std::vector<ScoringParams> scoring_systems() {
  std::vector<ScoringParams> out(5);
  out[1].match = 2;
  out[1].mismatch = 3;
  out[1].gap_open = 5;
  out[1].gap_extend = 2;
  out[1].xdrop_gapped = 30;
  out[2].gap_open = 0;  // gap_first == gap_extend: open/extend ties
  out[2].gap_extend = 2;
  out[3].match = 1;
  out[3].mismatch = 2;
  out[3].gap_open = 2;
  out[3].gap_extend = 1;  // wide band: excursion = xdrop
  out[3].xdrop_gapped = 12;
  out[4].gap_open = -1;  // gap_first < gap_extend: E decays by gap_first
  out[4].gap_extend = 2;
  return out;
}

simulate::MutationModel indel_heavy(double divergence) {
  simulate::MutationModel m;
  m.sub_rate = divergence * 0.5;
  m.ins_rate = divergence * 0.25;
  m.del_rate = divergence * 0.25;
  m.indel_extend = 0.5;
  return m;
}

// --- mutated and random pairs ------------------------------------------------

class MutatedPairs : public ::testing::TestWithParam<int> {};

TEST_P(MutatedPairs, ExtensionsAndStatsMatchReference) {
  const int seed = GetParam();
  simulate::Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  for (const double divergence : {0.0, 0.01, 0.04, 0.1, 0.2, 0.35}) {
    const std::size_t len = 200 + rng.next_below(1500);
    const Codes base = simulate::random_codes(rng, len);
    const simulate::MutationModel model =
        seed % 2 == 0 ? simulate::MutationModel::with_divergence(divergence)
                      : indel_heavy(divergence);
    const Codes copy = simulate::mutate(rng, base, model);
    const auto flank = [&rng] {
      return simulate::random_codes(rng, rng.next_below(40));
    };
    const Codes s1 = framed(flank() + base + flank());
    const Codes s2 = framed(flank() + copy + flank());
    for (const ScoringParams& params : scoring_systems()) {
      for (int a = 0; a < 6; ++a) {
        // An anchor near the projected diagonal, jittered by up to 4.
        const Pos mid1 = 1 + static_cast<Pos>(rng.next_below(s1.size() - 1));
        const std::size_t proj =
            mid1 * s2.size() / s1.size() + rng.next_below(9);
        const Pos mid2 = static_cast<Pos>(
            std::clamp<std::size_t>(proj, 5, s2.size() - 1) - 4);
        ASSERT_TRUE(same_extension(s1, s2, mid1, mid2, params))
            << "seed " << seed << " divergence " << divergence;
      }
    }
  }
}

TEST_P(MutatedPairs, UnrelatedSequencesMatchReference) {
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) + 101);
  const Codes s1 =
      framed(simulate::random_codes(rng, 300 + rng.next_below(300)));
  const Codes s2 =
      framed(simulate::random_codes(rng, 300 + rng.next_below(300)));
  for (const ScoringParams& params : scoring_systems()) {
    for (int a = 0; a < 20; ++a) {
      const Pos mid1 = 1 + static_cast<Pos>(rng.next_below(s1.size() - 2));
      const Pos mid2 = 1 + static_cast<Pos>(rng.next_below(s2.size() - 2));
      ASSERT_TRUE(same_extension(s1, s2, mid1, mid2, params));
    }
  }
}

TEST_P(MutatedPairs, ArbitraryRectanglesMatchReference) {
  // The re-DP on rectangles no x-drop pass produced: unequal sides, poor
  // or no homology, a length difference wider than the gap excursion.
  simulate::Rng rng(static_cast<std::uint64_t>(GetParam()) + 202);
  const Codes base = simulate::random_codes(rng, 600);
  const Codes s1 = framed(base);
  const Codes s2 = framed(simulate::mutate(rng, base, indel_heavy(0.15)));
  for (const ScoringParams& params : scoring_systems()) {
    for (int r = 0; r < 25; ++r) {
      const Pos a = 1 + static_cast<Pos>(rng.next_below(s1.size() - 2));
      const Pos b = 1 + static_cast<Pos>(rng.next_below(s2.size() - 2));
      const auto length = [&rng](std::size_t room) {
        return static_cast<Pos>(
            rng.next_below(std::min<std::size_t>(120, room)));
      };
      const Pos e1 = a + length(s1.size() - 1 - a);
      const Pos e2 = b + length(s2.size() - 1 - b);
      ASSERT_TRUE(same_stats(s1, a, e1, s2, b, e2, params));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutatedPairs, ::testing::Range(1, 13));

// --- ambiguity codes, sentinels, clipping ------------------------------------

TEST(GappedKernel, AmbiguousCodesAndSentinelsMatchReference) {
  simulate::Rng rng(17);
  for (int round = 0; round < 40; ++round) {
    const Codes base = simulate::random_codes(rng, 300 + rng.next_below(400));
    Codes a = base;
    Codes b = simulate::mutate(rng, base, indel_heavy(0.06));
    // N runs at both ends and scattered through the middle.
    for (Codes* s : {&a, &b}) {
      const std::size_t head = 1 + rng.next_below(3);
      const std::size_t tail = 1 + rng.next_below(3);
      for (std::size_t k = 0; k < head; ++k) (*s)[k] = kAmbiguous;
      for (std::size_t k = 0; k < tail; ++k) {
        (*s)[s->size() - 1 - k] = kAmbiguous;
      }
      for (int k = 0; k < 8; ++k) (*s)[rng.next_below(s->size())] = kAmbiguous;
    }
    // Sequence boundaries in the middle of one or both sides.
    const auto middle = [&rng](const Codes& s) {
      return s.size() / 3 + rng.next_below(s.size() / 3);
    };
    if (round % 2 == 0) a[middle(a)] = kSentinel;
    if (round % 3 == 0) b[middle(b)] = kSentinel;
    const Codes s1 = framed(a);
    const Codes s2 = framed(b);
    for (const ScoringParams& params : scoring_systems()) {
      for (int k = 0; k < 8; ++k) {
        const Pos mid1 = 1 + static_cast<Pos>(rng.next_below(s1.size() - 2));
        const std::size_t proj = mid1 * s2.size() / s1.size();
        const Pos mid2 =
            static_cast<Pos>(std::clamp<std::size_t>(proj, 1, s2.size() - 2));
        ASSERT_TRUE(same_extension(s1, s2, mid1, mid2, params))
            << "round " << round;
      }
      // Anchors right next to the frame and to the middle sentinels.
      ASSERT_TRUE(same_extension(s1, s2, 1, 1, params));
      ASSERT_TRUE(same_extension(s1, s2, static_cast<Pos>(s1.size() - 1),
                                 static_cast<Pos>(s2.size() - 1), params));
    }
  }
}

TEST(GappedKernel, UnframedSpansMatchReference) {
  // No sentinel at all: the extension stops at the ends of the spans.
  simulate::Rng rng(19);
  const Codes a = simulate::random_codes(rng, 400);
  const Codes b = simulate::mutate(rng, a, indel_heavy(0.05));
  for (const Pos mid : {Pos{0}, Pos{1}, Pos{200}, Pos{399}}) {
    const Pos mid2 = std::min<Pos>(mid, static_cast<Pos>(b.size()));
    ASSERT_TRUE(same_extension(a, b, mid, mid2, ScoringParams{}));
  }
  ASSERT_TRUE(same_extension(a, b, static_cast<Pos>(a.size()),
                             static_cast<Pos>(b.size()), ScoringParams{}));
}

TEST(GappedKernel, MaxExtentClippingMatchesReference) {
  simulate::Rng rng(23);
  const Codes base = simulate::random_codes(rng, 1500);
  const Codes s1 = framed(base);
  const Codes s2 = framed(simulate::mutate(rng, base, indel_heavy(0.04)));
  for (const std::size_t max_extent :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{7},
        std::size_t{33}, std::size_t{64}, std::size_t{250}}) {
    for (const ScoringParams& params : scoring_systems()) {
      for (const Pos mid : {Pos{2}, Pos{400}, Pos{750}, Pos{1400}}) {
        const Pos mid2 = std::min<Pos>(mid, static_cast<Pos>(s2.size() - 2));
        ASSERT_TRUE(same_extension(s1, s2, mid, mid2, params, max_extent))
            << "max_extent " << max_extent;
      }
    }
  }
}

// --- degenerate rectangles ---------------------------------------------------

TEST(GappedKernel, EmptyAndLopsidedRectanglesMatchReference) {
  simulate::Rng rng(29);
  const Codes s1 = framed(simulate::random_codes(rng, 300));
  const Codes s2 = framed(simulate::random_codes(rng, 300));
  for (const ScoringParams& params : scoring_systems()) {
    const Pos excursion = static_cast<Pos>(
        params.xdrop_gapped / std::max(1, params.gap_extend));
    ASSERT_TRUE(same_stats(s1, 10, 10, s2, 20, 20, params));  // both empty
    ASSERT_TRUE(same_stats(s1, 10, 10, s2, 20, 70, params));
    ASSERT_TRUE(same_stats(s1, 10, 90, s2, 20, 20, params));
    ASSERT_TRUE(same_stats(s1, 10, 11, s2, 20, 21, params));  // one cell
    // |n2 - n1| well beyond the gap excursion, both ways.
    for (const Pos extra : {excursion + 3, 4 * excursion + 1, Pos{200}}) {
      ASSERT_TRUE(same_stats(s1, 50, 55, s2, 40, 45 + extra, params));
      ASSERT_TRUE(same_stats(s1, 50, 55 + extra, s2, 40, 45, params));
      ASSERT_TRUE(same_stats(s1, 1, 1 + extra, s2, 1, 2, params));
    }
  }
}

TEST(GappedKernel, LongAlignmentReleasesAndReusesScratch) {
  // A rectangle whose traceback outgrows the retained-scratch cap, then
  // small calls on the same thread again.
  simulate::Rng rng(31);
  const Codes base = simulate::random_codes(rng, 240000);
  const Codes s1 = framed(base);
  const Codes s2 = framed(simulate::mutate(
      rng, base, simulate::MutationModel::with_divergence(0.01)));
  const ScoringParams params;
  ASSERT_TRUE(same_extension(s1, s2, 120000, 120000, params));
  ASSERT_TRUE(same_stats(s1, 1, static_cast<Pos>(s1.size() - 1), s2, 1,
                         static_cast<Pos>(s2.size() - 1), params));
  ASSERT_TRUE(same_extension(s1, s2, 500, 500, params, 300));
  ASSERT_TRUE(same_stats(s1, 100, 180, s2, 100, 185, params));
}

// --- real step-2 HSPs --------------------------------------------------------

TEST(GappedKernel, PaperDataHspsMatchReference) {
  // The HSPs step 2 finds between two small synthetic EST banks, each
  // gap-extended from its midpoint as the gapped stage does.
  const simulate::PaperData data(0.004, 42);
  const seqio::SequenceBank bank1 = data.make("EST5");
  const seqio::SequenceBank bank2 = data.make("EST7");
  const index::SeedCoder coder(11);
  const index::BankIndex idx1(bank1, coder);
  const index::BankIndex idx2(bank2, coder);
  core::SeedScanResult scan;
  core::scan_seed_range(idx1, idx2, core::SeedScanParams{}, 0,
                        static_cast<index::SeedCode>(coder.num_seeds()), scan);
  ASSERT_GE(scan.hsps.size(), 200u);

  const ScoringParams params;
  std::size_t gapped = 0;
  for (const align::Hsp& h : scan.hsps) {
    const Pos half = (h.e1 - h.s1) / 2;
    ASSERT_TRUE(same_extension(bank1.data(), bank2.data(), h.s1 + half,
                               h.s2 + half, params));
    const GappedExtent ext = align::extend_gapped(
        bank1.data(), bank2.data(), h.s1 + half, h.s2 + half, params);
    if (ext.e1 - ext.s1 != ext.e2 - ext.s2) ++gapped;
  }
  // The sample must exercise the gapped paths, not only diagonals.
  EXPECT_GT(gapped, 0u);
}

// --- per-thread scratch ------------------------------------------------------

TEST(GappedKernel, ConcurrentCallersMatchReference) {
  std::vector<int> failures(4, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &failures] {
      simulate::Rng rng(static_cast<std::uint64_t>(t) + 37);
      for (int round = 0; round < 30; ++round) {
        const Codes base =
            simulate::random_codes(rng, 200 + rng.next_below(800));
        const Codes s1 = framed(base);
        const Codes s2 = framed(simulate::mutate(rng, base, indel_heavy(0.08)));
        const Pos mid1 = static_cast<Pos>(s1.size() / 2);
        const Pos mid2 = static_cast<Pos>(
            std::min<std::size_t>(mid1, s2.size() - 2));
        if (!same_extension(s1, s2, mid1, mid2, ScoringParams{})) {
          ++failures[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace scoris
