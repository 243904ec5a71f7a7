#include "align/gapped.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace scoris::align {
namespace {

using seqio::Code;
using seqio::kSentinel;
using seqio::Pos;

/// Value of an unreachable or pruned cell.  The cell updates add and
/// subtract scores without checking for it: anything derived from it
/// stays within a few gap costs of kNegInf, far below every reachable
/// score (and below every x-drop threshold), so a max() against a real
/// value picks the real value exactly as a guarded update would.
constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

/// A thread's scratch buffers are kept for its next call unless one long
/// alignment grew them past this size; then they are released on return,
/// so what stays resident never exceeds what one call needs.
constexpr std::size_t kRetainBytes = std::size_t{1} << 22;

struct OneDirResult {
  std::int32_t score = 0;
  std::size_t len1 = 0;  // characters of seq1 consumed at the best cell
  std::size_t len2 = 0;
};

/// Reusable per-thread x-drop rows.  Step 3 runs one extension per HSP, so
/// avoiding a fresh allocation per call matters; the arrays grow to the
/// longest extension seen by this thread and are reused.
struct XdropScratch {
  std::vector<std::int32_t> h_prev;
  std::vector<std::int32_t> h_cur;
  std::vector<std::int32_t> f;

  void ensure(std::size_t n) {
    if (h_prev.size() < n) {
      const std::size_t cap = std::max(n, h_prev.size() * 2 + 64);
      h_prev.resize(cap);
      h_cur.resize(cap);
      f.resize(cap);
    }
  }
};

thread_local XdropScratch tl_xdrop;

/// Adaptive-band x-drop extension of the (implicit) sequences a[0..) and
/// b[0..), read forward from the anchor (Dir = +1) or backward from just
/// before it (Dir = -1).  Sequence ends are discovered lazily: a kSentinel
/// (or running off the span, or exceeding max_extent) terminates that
/// axis.
///
/// Row i holds the live window [prev_lo, prev_hi] of row i-1.  kNegInf
/// sentinels at prev_lo-1 and prev_hi+1 stand in for range checks, so the
/// part of a row that reads the previous one has no guards; beyond
/// prev_hi+1 only the row-local horizontal gap E feeds a cell.
template <int Dir>
OneDirResult xdrop_one_direction(std::span<const Code> seq1, Pos anchor1,
                                 std::span<const Code> seq2, Pos anchor2,
                                 std::size_t max_extent,
                                 const ScoringParams& params) {
  static_assert(Dir == 1 || Dir == -1);
  OneDirResult best;  // the empty extension scores 0

  // Available span on each axis before the bank boundary (sentinels are
  // detected during the walk; these bounds only prevent out-of-range
  // reads).
  const std::size_t n1 =
      std::min(max_extent, Dir > 0 ? seq1.size() - anchor1
                                   : static_cast<std::size_t>(anchor1));
  std::size_t n2 =
      std::min(max_extent, Dir > 0 ? seq2.size() - anchor2
                                   : static_cast<std::size_t>(anchor2));
  if (n1 == 0 || n2 == 0) return best;

  const Code* const pa = seq1.data() + anchor1;
  const Code* const pb = seq2.data() + anchor2;
  const auto a = [pa](std::size_t i) -> Code {
    return Dir > 0 ? pa[i] : *(pa - 1 - i);
  };
  const auto b = [pb](std::size_t j) -> Code {
    return Dir > 0 ? pb[j] : *(pb - 1 - j);
  };

  const int xdrop = params.xdrop_gapped;
  const std::int32_t gap_first = params.gap_first();
  const std::int32_t ge = params.gap_extend;
  const std::int32_t match = params.match;
  const std::int32_t mismatch = -params.mismatch;

  XdropScratch& sc = tl_xdrop;
  sc.ensure(64);

  std::int32_t best_score = 0;

  // Row 0: pure gaps in seq1 (consume b only).
  sc.h_prev[0] = 0;
  std::size_t prev_lo = 0;
  std::size_t prev_hi = 0;
  for (std::size_t j = 1; j <= n2; ++j) {
    if (b(j - 1) == kSentinel) {
      n2 = j - 1;
      break;
    }
    const std::int32_t v = -(params.gap_open + static_cast<int>(j) * ge);
    if (best_score - v > xdrop) break;
    sc.ensure(j + 2);
    sc.h_prev[j] = v;
    prev_hi = j;
  }
  // Row 1 reads f[] over the row-0 window; the scratch persists across
  // calls, so those entries must not leak F values from a previous
  // extension.  (Later rows only read f[] where the previous row wrote it.)
  std::fill_n(sc.f.begin(), std::min(sc.f.size(), prev_hi + 2), kNegInf);
  // b(0) .. b(b_clear - 1) are known not to be sentinels.
  std::size_t b_clear = prev_hi;

  for (std::size_t i = 1; i <= n1; ++i) {
    const Code ai = a(i - 1);
    if (ai == kSentinel) break;
    // Cells scoring below the threshold are pruned; best_score only
    // changes between rows.
    const std::int32_t thr = best_score - xdrop;

    // Columns read from the previous row; find any bank boundary among
    // them up front so the cell loop needs no sentinel test.
    std::size_t j_limit = std::min(n2, prev_hi + 1);
    for (; b_clear < j_limit; ++b_clear) {
      if (b(b_clear) == kSentinel) {
        n2 = b_clear;
        j_limit = n2;
        break;
      }
    }

    sc.ensure(prev_hi + 2);
    std::int32_t* const hp = sc.h_prev.data();
    std::int32_t* const hc = sc.h_cur.data();
    std::int32_t* const f = sc.f.data();
    hp[prev_hi + 1] = kNegInf;
    f[prev_hi + 1] = kNegInf;
    if (prev_lo > 0) hp[prev_lo - 1] = kNegInf;

    std::int32_t e = kNegInf;  // horizontal gap state, row-local
    std::size_t new_lo = SIZE_MAX;
    std::size_t new_hi = 0;
    std::int32_t row_best = kNegInf;
    std::size_t row_best_j = 0;

    std::size_t j = prev_lo;

    // Column 0 (no b consumed): only vertical gaps reach it.
    if (j == 0) {
      const std::int32_t v = -(params.gap_open + static_cast<int>(i) * ge);
      const std::int32_t h0 = v < thr ? kNegInf : v;
      hc[0] = h0;
      if (h0 != kNegInf) {
        new_lo = 0;
        new_hi = 0;
      }
      j = 1;
    }

    // Cells fed by the previous row.
    const bool ai_base = seqio::is_base(ai);
    for (; j <= j_limit; ++j) {
      const std::int32_t s = (ai_base && b(j - 1) == ai) ? match : mismatch;
      // Vertical gap: consume a(i) without b.
      const std::int32_t f_val = std::max(hp[j] - gap_first, f[j] - ge);
      // Diagonal: consume a(i) and b(j).
      std::int32_t h = std::max(std::max(hp[j - 1] + s, e), f_val);
      h = h < thr ? kNegInf : h;
      hc[j] = h;
      f[j] = f_val;

      const bool live = h != kNegInf;
      new_lo = std::min(new_lo, live ? j : SIZE_MAX);
      new_hi = live ? j : new_hi;
      const bool better = h > row_best;
      row_best = better ? h : row_best;
      row_best_j = better ? j : row_best_j;

      // E for the next column of this row.
      const std::int32_t e_next = std::max(h - gap_first, e - ge);
      e = e_next < thr ? kNegInf : e_next;
    }

    // Beyond the previous row's reach only E feeds a cell (H = E, F is
    // empty), and E loses min(gap_extend, gap_first) per column, so the
    // tail ends within (e - thr) / decay + 1 cells.
    if (j <= n2 && e > thr) {
      const std::int32_t decay = std::min(ge, gap_first);
      const std::size_t tail =
          decay > 0 ? static_cast<std::size_t>((e - thr) / decay) + 1 : n2;
      sc.ensure(std::min(n2, j + tail) + 2);
    }
    for (; j <= n2 && e > thr; ++j) {
      if (j > b_clear) {
        if (b(j - 1) == kSentinel) {
          n2 = j - 1;  // bank boundary on the b axis
          break;
        }
        b_clear = j;
      }
      sc.h_cur[j] = e;
      sc.f[j] = kNegInf;
      new_lo = std::min(new_lo, j);
      new_hi = j;
      if (e > row_best) {
        row_best = e;
        row_best_j = j;
      }
      const std::int32_t e_next = std::max(e - gap_first, e - ge);
      e = e_next < thr ? kNegInf : e_next;
    }

    if (new_lo == SIZE_MAX) break;  // no live cell: extension finished

    if (row_best > best_score) {
      best_score = row_best;
      best.score = best_score;
      best.len1 = i;
      best.len2 = row_best_j;
    }

    sc.h_prev.swap(sc.h_cur);
    prev_lo = new_lo;
    prev_hi = new_hi;
  }

  if (sc.h_prev.size() * sizeof(std::int32_t) > kRetainBytes) sc = {};
  return best;
}

/// Reusable per-thread banded re-DP buffers: the traceback matrix and two
/// H and two F rows of band+1 entries (the last a permanent kNegInf pad).
struct BandScratch {
  std::vector<std::uint8_t> tb;
  std::vector<std::int32_t> rows;
};

thread_local BandScratch tl_band;

}  // namespace

GappedExtent extend_gapped(std::span<const Code> seq1,
                           std::span<const Code> seq2, Pos mid1, Pos mid2,
                           const ScoringParams& params,
                           std::size_t max_extent) {
  const OneDirResult right =
      xdrop_one_direction<+1>(seq1, mid1, seq2, mid2, max_extent, params);
  const OneDirResult left =
      xdrop_one_direction<-1>(seq1, mid1, seq2, mid2, max_extent, params);

  GappedExtent out;
  out.s1 = mid1 - static_cast<Pos>(left.len1);
  out.s2 = mid2 - static_cast<Pos>(left.len2);
  out.e1 = mid1 + static_cast<Pos>(right.len1);
  out.e2 = mid2 + static_cast<Pos>(right.len2);
  out.score = left.score + right.score;
  return out;
}

AlignmentStats banded_global_stats(std::span<const Code> seq1, Pos s1, Pos e1,
                                   std::span<const Code> seq2, Pos s2, Pos e2,
                                   const ScoringParams& params,
                                   std::int32_t* out_score,
                                   std::vector<AlignOp>* out_ops) {
  const std::size_t n1 = e1 - s1;
  const std::size_t n2 = e2 - s2;
  AlignmentStats stats;
  if (out_ops != nullptr) out_ops->clear();

  // Degenerate cases: one side empty -> all-gap alignment.
  if (n1 == 0 || n2 == 0) {
    const std::size_t g = std::max(n1, n2);
    stats.length = static_cast<std::uint32_t>(g);
    stats.gap_columns = static_cast<std::uint32_t>(g);
    stats.gap_opens = g > 0 ? 1 : 0;
    if (out_score != nullptr) {
      *out_score = g == 0 ? 0
                          : -(params.gap_open +
                              static_cast<int>(g) * params.gap_extend);
    }
    if (out_ops != nullptr) {
      out_ops->assign(g, n1 == 0 ? AlignOp::kGapInSeq1 : AlignOp::kGapInSeq2);
    }
    return stats;
  }

  // Band over k = j - i.  Any x-drop path deviates from the straight
  // endpoint-to-endpoint line by at most xdrop/gap_extend gap columns.
  const int excursion = params.xdrop_gapped / std::max(1, params.gap_extend);
  const int dn = static_cast<int>(n2) - static_cast<int>(n1);
  const int kmin = std::min(0, dn) - excursion - 2;
  const int kmax = std::max(0, dn) + excursion + 2;
  const std::size_t band = static_cast<std::size_t>(kmax - kmin + 1);
  if (dn < kmin || dn > kmax) {
    throw std::logic_error("banded_global_stats: endpoint outside band");
  }

  // Every in-band cell is reachable in the H state (a diagonal run plus
  // one gap along the border), so H never needs an unreachable guard.
  // Only E at a row's first cell and F from just outside the band are
  // unreachable; they start at kNegInf and lose every max() to a real H.
  // A row reads only the cells the previous row wrote plus the pad at
  // index `band`, so rows are never cleared.
  BandScratch& sc = tl_band;
  const std::size_t cells = (n1 + 1) * band;
  if (sc.tb.size() < cells) sc.tb.resize(cells);
  if (sc.rows.size() < 4 * (band + 1)) sc.rows.resize(4 * (band + 1));
  std::uint8_t* const tb = sc.tb.data();
  std::int32_t* h_prev = sc.rows.data();
  std::int32_t* h_cur = h_prev + (band + 1);
  std::int32_t* f_prev = h_cur + (band + 1);
  std::int32_t* f_cur = f_prev + (band + 1);
  h_prev[band] = h_cur[band] = f_prev[band] = f_cur[band] = kNegInf;

  const std::int32_t gap_first = params.gap_first();
  const std::int32_t ge = params.gap_extend;
  const std::int32_t match = params.match;
  const std::int32_t mismatch = -params.mismatch;
  // Band column of cell (0, 0); cell (i, j) sits at k0 + j - i.
  const std::size_t k0 = static_cast<std::size_t>(-kmin);

  // Traceback byte per cell: bits 0-1 = H source (0 diag, 1 E, 2 F);
  // bit 2: the E state feeding the *next* column extends an E run; bit 3:
  // the F state of this cell extends an F run.
  //
  // Row 0: E chain along the top edge.
  const std::size_t row0_hi = std::min(n2, static_cast<std::size_t>(kmax));
  for (std::size_t j = 0; j <= row0_hi; ++j) {
    h_prev[k0 + j] = j == 0 ? 0 : -(params.gap_open + static_cast<int>(j) * ge);
    f_prev[k0 + j] = kNegInf;
    tb[k0 + j] = j == 0 ? 0 : static_cast<std::uint8_t>(1 | 4);
  }

  const Code* const b = seq2.data() + s2;
  for (std::size_t i = 1; i <= n1; ++i) {
    const Code ai = seq1[s1 + i - 1];
    const bool ai_base = seqio::is_base(ai);
    const std::size_t j_lo = static_cast<std::size_t>(
        std::max<std::int64_t>(0, static_cast<std::int64_t>(i) + kmin));
    const std::size_t j_hi = static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(n2), static_cast<std::int64_t>(i) + kmax));
    std::uint8_t* const t_row = tb + i * band;

    // k runs over band columns; cell (i, j) is at k, its diagonal
    // predecessor (i-1, j-1) at k of the previous row, (i-1, j) at k + 1.
    std::size_t k = j_lo + k0 - i;
    std::int32_t e = kNegInf;
    if (j_lo == 0) {
      // Column 0: only a vertical gap reaches (i, 0).
      const std::int32_t f_open = h_prev[k + 1] - gap_first;
      const std::int32_t f_cont = f_prev[k + 1] - ge;
      const bool f_ext = f_cont > f_open;
      const std::int32_t f_val = f_ext ? f_cont : f_open;
      f_cur[k] = f_val;
      h_cur[k] = f_val;
      e = f_val - gap_first;
      t_row[k] = static_cast<std::uint8_t>(2 | (f_ext ? 8 : 0));
      ++k;
    }

    const std::size_t k_end = j_hi + 1 + k0 - i;
    const Code* bj = b + (k - k0 + i - 1);  // b(j - 1) of the cell at k
    for (; k < k_end; ++k, ++bj) {
      // F: vertical gap from (i-1, j).
      const std::int32_t f_open = h_prev[k + 1] - gap_first;
      const std::int32_t f_cont = f_prev[k + 1] - ge;
      const bool f_ext = f_cont > f_open;
      const std::int32_t f_val = f_ext ? f_cont : f_open;
      f_cur[k] = f_val;

      // Diagonal from (i-1, j-1); ties go to the diagonal, then to E.
      const std::int32_t s = (ai_base && *bj == ai) ? match : mismatch;
      const std::int32_t diag = h_prev[k] + s;
      const bool e_wins = e > diag;
      std::int32_t h = e_wins ? e : diag;
      const bool f_wins = f_val > h;
      h = f_wins ? f_val : h;
      h_cur[k] = h;
      const unsigned src = f_wins ? 2u : (e_wins ? 1u : 0u);

      // E feeding column j+1 of this row.
      const std::int32_t e_open = h - gap_first;
      const std::int32_t e_cont = e - ge;
      const bool e_ext = e_cont > e_open;
      e = e_ext ? e_cont : e_open;

      t_row[k] = static_cast<std::uint8_t>(src | (e_ext ? 4u : 0u) |
                                           (f_ext ? 8u : 0u));
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }

  const std::int32_t final_score = h_prev[k0 + n2 - n1];
  if (out_score != nullptr) *out_score = final_score;

  // Traceback.  State 0 = H, 1 = E (gap in seq1, consumes b), 2 = F (gap in
  // seq2, consumes a).  E-continuation for the E state entered at (i,j) is
  // encoded in the byte of (i, j-1); F-continuation in the byte of (i,j).
  // Only cells the DP wrote are visited; a step outside the band means
  // the traceback is broken.
  const auto cell = [&](std::size_t ci, std::size_t cj) -> std::uint8_t {
    const std::size_t k = k0 + cj - ci;  // wraps when cj - ci < kmin
    if (k >= band) {
      throw std::logic_error("banded_global_stats: broken traceback");
    }
    return tb[ci * band + k];
  };
  std::size_t i = n1;
  std::size_t j = n2;
  int state = 0;
  while (i > 0 || j > 0) {
    const std::uint8_t byte = cell(i, j);
    if (state == 0) {
      const int src = byte & 3;
      if (src == 0 && i > 0 && j > 0) {
        const Code a = seq1[s1 + i - 1];
        const Code bb = seq2[s2 + j - 1];
        ++stats.length;
        if (seqio::is_base(a) && a == bb) {
          ++stats.matches;
        } else {
          ++stats.mismatches;
        }
        if (out_ops != nullptr) out_ops->push_back(AlignOp::kMatch);
        --i;
        --j;
      } else if (src == 1) {
        state = 1;
        ++stats.gap_opens;
      } else if (src == 2) {
        state = 2;
        ++stats.gap_opens;
      } else {
        throw std::logic_error("banded_global_stats: broken traceback");
      }
      continue;
    }
    if (state == 1) {
      // Gap in seq1: consume b(j).
      ++stats.length;
      ++stats.gap_columns;
      if (out_ops != nullptr) out_ops->push_back(AlignOp::kGapInSeq1);
      const std::uint8_t left_byte = (j >= 1) ? cell(i, j - 1) : 0;
      --j;
      if ((left_byte & 4) == 0) state = 0;
      continue;
    }
    // state == 2: gap in seq2, consume a(i).
    ++stats.length;
    ++stats.gap_columns;
    if (out_ops != nullptr) out_ops->push_back(AlignOp::kGapInSeq2);
    const bool f_continues = (byte & 8) != 0;
    --i;
    if (!f_continues) state = 0;
  }

  if (out_ops != nullptr) std::reverse(out_ops->begin(), out_ops->end());
  if (sc.tb.size() > kRetainBytes) sc = {};
  return stats;
}

}  // namespace scoris::align
