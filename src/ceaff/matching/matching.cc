#include "ceaff/matching/matching.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <utility>

#include "ceaff/common/logging.h"
#include "ceaff/common/thread_pool.h"
#include "ceaff/la/ops.h"

namespace ceaff::matching {

std::vector<kg::AlignmentPair> MatchResult::Pairs() const {
  std::vector<kg::AlignmentPair> out;
  for (size_t i = 0; i < target_of_source.size(); ++i) {
    if (target_of_source[i] >= 0) {
      out.push_back({static_cast<uint32_t>(i),
                     static_cast<uint32_t>(target_of_source[i])});
    }
  }
  return out;
}

size_t MatchResult::num_matched() const {
  size_t n = 0;
  for (int64_t t : target_of_source) n += (t >= 0);
  return n;
}

MatchResult GreedyIndependent(const la::Matrix& similarity) {
  MatchResult result;
  std::vector<size_t> best = la::RowArgmax(similarity);
  result.target_of_source.resize(similarity.rows());
  for (size_t i = 0; i < best.size(); ++i) {
    result.target_of_source[i] = static_cast<int64_t>(best[i]);
  }
  if (similarity.cols() == 0) {
    result.target_of_source.assign(similarity.rows(), -1);
  }
  return result;
}

MatchResult GreedyOneToOne(const la::Matrix& similarity) {
  struct Cell {
    float score;
    uint32_t row, col;
  };
  std::vector<Cell> cells;
  cells.reserve(similarity.rows() * similarity.cols());
  for (size_t i = 0; i < similarity.rows(); ++i) {
    const float* p = similarity.row(i);
    for (size_t j = 0; j < similarity.cols(); ++j) {
      cells.push_back({p[j], static_cast<uint32_t>(i),
                       static_cast<uint32_t>(j)});
    }
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.row != b.row) return a.row < b.row;
    return a.col < b.col;
  });
  MatchResult result;
  result.target_of_source.assign(similarity.rows(), -1);
  std::vector<char> used_col(similarity.cols(), 0);
  size_t matched = 0;
  const size_t want = std::min(similarity.rows(), similarity.cols());
  for (const Cell& c : cells) {
    if (matched == want) break;
    if (result.target_of_source[c.row] >= 0 || used_col[c.col]) continue;
    result.target_of_source[c.row] = c.col;
    used_col[c.col] = 1;
    ++matched;
  }
  return result;
}

namespace {

/// Source-side preference over the targets of a row is score descending,
/// ties to the lower index. RankKey encodes a cell so that ascending keys
/// are exactly that order: the high word is the score mapped to an
/// unsigned word that ascends as the score descends, the low word is the
/// index. -0.0 is folded into +0.0 first, because the two compare equal
/// and must tie. Distinct targets get distinct keys, so on a NaN-free row
/// the order is strict and total, and every block selected under it is a
/// prefix of the one full sort.
uint64_t RankKey(float score, uint32_t j) {
  if (score == 0.0f) score = 0.0f;
  uint32_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  // Unsigned order of `ascending` is the float order of `score`.
  const uint32_t ascending = (bits & 0x80000000u) ? ~bits : bits | 0x80000000u;
  return (static_cast<uint64_t>(~ascending) << 32) | j;
}

/// The target index a RankKey was built from.
uint32_t TargetOf(uint64_t key) { return static_cast<uint32_t>(key); }

/// Size of every source's first block of preference; each refill block is
/// twice the size of the block it follows.
constexpr size_t kFirstBlock = 32;
/// Rows per ParallelFor task when the first blocks are built. Partitioning
/// only: a row's block depends on that row alone.
constexpr size_t kPanelRows = 64;
/// `floor` value meaning "no target taken yet".
constexpr int64_t kNoFloor = -1;

/// Writes to out[0..k), best first, the k most preferred targets of `row`
/// among those strictly after `floor` (all n2 targets when floor is
/// kNoFloor). The caller guarantees at least k such targets.
///
/// Buffered selection: candidate keys collect in `scratch` (2k slots);
/// when it fills, nth_element keeps the best k and the worst of them
/// becomes a bar every later cell must beat. Two float comparisons reject
/// most cells before their key is built. The top k keys are unique, so the
/// block does not depend on when the buffer was compacted. O(n2 + k log k)
/// for typical rows. Returns false, leaving `out` unspecified, on a NaN
/// cell.
bool SelectBlock(const float* row, uint32_t n2, int64_t floor, size_t k,
                 std::vector<uint64_t>* scratch, uint32_t* out) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  scratch->resize(2 * k);
  uint64_t* buf = scratch->data();
  const float floor_score = floor >= 0 ? row[floor] : kInf;
  const uint64_t floor_key =
      floor >= 0 ? RankKey(floor_score, static_cast<uint32_t>(floor)) : 0;
  float bar_score = -kInf;
  uint64_t bar = std::numeric_limits<uint64_t>::max();
  size_t size = 0;
  for (uint32_t j = 0; j < n2; ++j) {
    const float v = row[j];
    // Scores below the bar or above the floor can never qualify; a NaN
    // fails both comparisons and is caught below.
    if (v < bar_score || v > floor_score) continue;
    if (std::isnan(v)) return false;
    const uint64_t key = RankKey(v, j);
    // Strictly after the last target taken, and ahead of the bar.
    if ((floor >= 0 && key <= floor_key) || key >= bar) continue;
    buf[size++] = key;
    if (size == 2 * k) {
      std::nth_element(buf, buf + k - 1, buf + size);
      size = k;
      bar = buf[k - 1];
      bar_score = row[TargetOf(bar)];
    }
  }
  if (size > k) std::nth_element(buf, buf + k - 1, buf + size);
  std::sort(buf, buf + k);
  for (size_t t = 0; t < k; ++t) out[t] = TargetOf(buf[t]);
  return true;
}

/// The sources' preference lists, materialised one block at a time: a
/// first block of kFirstBlock targets per source, built up front in row
/// panels on the caller's pool, then a refill of twice the previous block
/// each time a source has proposed to its whole block.
class LazyPreferences {
 public:
  explicit LazyPreferences(const la::Matrix& similarity)
      : sim_(similarity),
        n2_(static_cast<uint32_t>(similarity.cols())),
        first_size_(std::min<size_t>(kFirstBlock, similarity.cols())),
        first_(similarity.rows() * first_size_),
        refill_(similarity.rows()),
        cursor_(similarity.rows(), 0),
        taken_(similarity.rows(), 0) {}

  /// Selects every source's first block. InvalidArgument on a NaN cell;
  /// kCancelled/kDeadlineExceeded once ctx.cancel fires (polled per panel).
  Status BuildFirstBlocks(const la::KernelContext& ctx) {
    const size_t n1 = sim_.rows();
    const size_t panels = (n1 + kPanelRows - 1) / kPanelRows;
    // One SelectBlock buffer per panel, allocated here so that pool
    // workers never call malloc (each would grow its own arena).
    std::vector<std::vector<uint64_t>> scratch(
        panels, std::vector<uint64_t>(2 * first_size_));
    std::atomic<bool> has_nan{false};
    ParallelFor(ctx.pool, panels, [&](size_t p) {
      if (has_nan.load(std::memory_order_relaxed) ||
          !ctx.CheckCancelled("deferred acceptance").ok()) {
        return;
      }
      const size_t end = std::min(n1, (p + 1) * kPanelRows);
      for (size_t i = p * kPanelRows; i < end; ++i) {
        if (!SelectBlock(sim_.row(i), n2_, kNoFloor, first_size_,
                         &scratch[p], &first_[i * first_size_])) {
          has_nan.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
    CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("deferred acceptance"));
    if (has_nan.load()) {
      return Status::InvalidArgument(
          "deferred acceptance: similarity matrix holds NaN");
    }
    return Status::OK();
  }

  /// Source u's next target in preference order, or -1 once it has
  /// proposed to every target.
  int64_t Next(uint32_t u) {
    if (taken_[u] == n2_) return -1;
    std::vector<uint32_t>& refill = refill_[u];
    const uint32_t* block =
        refill.empty() ? &first_[u * first_size_] : refill.data();
    const size_t block_size = refill.empty() ? first_size_ : refill.size();
    if (cursor_[u] == block_size) {
      const uint32_t last = block[block_size - 1];
      const size_t size =
          std::min<size_t>(2 * block_size, n2_ - taken_[u]);
      refill.resize(size);
      // The first-block scan already rejected any NaN in this row.
      SelectBlock(sim_.row(u), n2_, last, size, &scratch_, refill.data());
      block = refill.data();
      cursor_[u] = 0;
    }
    ++taken_[u];
    return block[cursor_[u]++];
  }

 private:
  const la::Matrix& sim_;
  const uint32_t n2_;
  const size_t first_size_;
  std::vector<uint32_t> first_;                 // n1 x first_size_
  std::vector<std::vector<uint32_t>> refill_;   // current refill, if any
  std::vector<uint32_t> cursor_;                // position in current block
  std::vector<uint32_t> taken_;                 // proposals made so far
  std::vector<uint64_t> scratch_;               // SelectBlock's buffer
};

/// Shared Gale–Shapley engine; `trace` may be null. The cancellation token
/// is polled once per n1 proposals (one nominal "round"), so even
/// adversarial instances with O(n1·n2) proposals stay responsive without
/// paying an atomic load per proposal.
StatusOr<MatchResult> DaaImpl(const la::Matrix& similarity,
                              std::vector<DaaTraceEvent>* trace,
                              const la::KernelContext& ctx) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0 || n2 == 0) return result;

  LazyPreferences prefs(similarity);
  CEAFF_RETURN_IF_ERROR(prefs.BuildFirstBlocks(ctx));

  // Target-side preference: j prefers i over i' iff sim(i,j) > sim(i',j),
  // ties to the lower source index — compared directly on the matrix.
  auto target_prefers = [&similarity](uint32_t j, uint32_t challenger,
                                      uint32_t incumbent) {
    float sc = similarity.at(challenger, j);
    float si = similarity.at(incumbent, j);
    return sc != si ? sc > si : challenger < incumbent;
  };

  std::vector<int64_t> source_of_target(n2, -1);
  // Track the proposal round per source for the trace (round = how many
  // times it has re-entered the free queue).
  std::vector<size_t> round_of_source(n1, 1);
  std::queue<uint32_t> free_sources;
  for (uint32_t i = 0; i < n1; ++i) free_sources.push(i);

  size_t proposals = 0;
  while (!free_sources.empty()) {
    if (proposals++ % n1 == 0) {
      CEAFF_RETURN_IF_ERROR(ctx.CheckCancelled("deferred acceptance"));
    }
    uint32_t u = free_sources.front();
    free_sources.pop();
    const int64_t next = prefs.Next(u);
    if (next < 0) continue;  // exhausted (only when n1 > n2)
    const uint32_t v = static_cast<uint32_t>(next);
    int64_t incumbent = source_of_target[v];
    bool accepted =
        incumbent < 0 ||
        target_prefers(v, u, static_cast<uint32_t>(incumbent));
    if (trace != nullptr) {
      trace->push_back({round_of_source[u], u, v, accepted,
                        accepted ? incumbent : -1});
    }
    if (accepted) {
      source_of_target[v] = u;
      result.target_of_source[u] = v;
      if (incumbent >= 0) {
        result.target_of_source[incumbent] = -1;
        round_of_source[incumbent]++;
        free_sources.push(static_cast<uint32_t>(incumbent));
      }
    } else {
      round_of_source[u]++;
      free_sources.push(u);
    }
  }
  return result;
}

/// DaaImpl without a token or pool, where only a NaN cell can fail.
MatchResult DaaUnchecked(const la::Matrix& similarity,
                         std::vector<DaaTraceEvent>* trace) {
  StatusOr<MatchResult> result = DaaImpl(similarity, trace, {});
  CEAFF_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

}  // namespace

MatchResult DeferredAcceptance(const la::Matrix& similarity) {
  return DaaUnchecked(similarity, nullptr);
}

StatusOr<MatchResult> DeferredAcceptanceChecked(
    const la::Matrix& similarity, const la::KernelContext& ctx) {
  return DaaImpl(similarity, nullptr, ctx);
}

MatchResult DeferredAcceptanceTraced(const la::Matrix& similarity,
                                     std::vector<DaaTraceEvent>* trace) {
  trace->clear();
  return DaaUnchecked(similarity, trace);
}

MatchResult DeferredAcceptanceTargetProposing(const la::Matrix& similarity) {
  // Run the source-proposing engine on the transposed instance, then map
  // the target-side assignment back to source order.
  const MatchResult transposed =
      DaaUnchecked(similarity.Transposed(), nullptr);
  MatchResult result;
  result.target_of_source.assign(similarity.rows(), -1);
  for (size_t j = 0; j < transposed.target_of_source.size(); ++j) {
    int64_t i = transposed.target_of_source[j];
    if (i >= 0) {
      result.target_of_source[static_cast<size_t>(i)] =
          static_cast<int64_t>(j);
    }
  }
  return result;
}

StatusOr<MatchResult> HungarianMatch(const la::Matrix& similarity) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  if (n1 > n2) {
    return Status::InvalidArgument(
        "HungarianMatch requires rows <= cols (sources <= targets)");
  }
  MatchResult result;
  result.target_of_source.assign(n1, -1);
  if (n1 == 0) return result;

  // Jonker–Volgenant style shortest augmenting path on cost = -similarity,
  // 1-based arrays per the classical formulation.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n1 + 1, 0.0), v(n2 + 1, 0.0);
  std::vector<size_t> p(n2 + 1, 0);    // p[j]: source matched to target j
  std::vector<size_t> way(n2 + 1, 0);  // back-pointers along the alt path
  for (size_t i = 1; i <= n1; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(n2 + 1, kInf);
    std::vector<char> used(n2 + 1, 0);
    do {
      used[j0] = 1;
      size_t i0 = p[j0], j1 = 0;
      double delta = kInf;
      for (size_t j = 1; j <= n2; ++j) {
        if (used[j]) continue;
        double cost = -static_cast<double>(similarity.at(i0 - 1, j - 1));
        double cur = cost - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= n2; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  for (size_t j = 1; j <= n2; ++j) {
    if (p[j] != 0) {
      result.target_of_source[p[j] - 1] = static_cast<int64_t>(j - 1);
    }
  }
  return result;
}

size_t CountBlockingPairs(const la::Matrix& similarity,
                          const MatchResult& match) {
  const size_t n1 = similarity.rows();
  const size_t n2 = similarity.cols();
  CEAFF_CHECK(match.target_of_source.size() == n1);
  // source_of_target from the match.
  std::vector<int64_t> source_of_target(n2, -1);
  for (size_t i = 0; i < n1; ++i) {
    int64_t t = match.target_of_source[i];
    if (t >= 0) source_of_target[static_cast<size_t>(t)] = static_cast<int64_t>(i);
  }
  auto src_pref = [&similarity](uint32_t i, uint32_t j, int64_t cur) {
    // Does source i strictly prefer target j to its current target?
    if (cur < 0) return true;  // unmatched prefers anyone
    float sj = similarity.at(i, j);
    float sc = similarity.at(i, static_cast<size_t>(cur));
    return sj != sc ? sj > sc : j < static_cast<uint32_t>(cur);
  };
  auto dst_pref = [&similarity](uint32_t j, uint32_t i, int64_t cur) {
    if (cur < 0) return true;
    float si = similarity.at(i, j);
    float sc = similarity.at(static_cast<size_t>(cur), j);
    return si != sc ? si > sc : i < static_cast<uint32_t>(cur);
  };
  size_t blocking = 0;
  for (uint32_t i = 0; i < n1; ++i) {
    for (uint32_t j = 0; j < n2; ++j) {
      if (match.target_of_source[i] == static_cast<int64_t>(j)) continue;
      if (src_pref(i, j, match.target_of_source[i]) &&
          dst_pref(j, i, source_of_target[j])) {
        ++blocking;
      }
    }
  }
  return blocking;
}

double TotalWeight(const la::Matrix& similarity, const MatchResult& match) {
  double sum = 0.0;
  for (size_t i = 0; i < match.target_of_source.size(); ++i) {
    int64_t t = match.target_of_source[i];
    if (t >= 0) sum += similarity.at(i, static_cast<size_t>(t));
  }
  return sum;
}

}  // namespace ceaff::matching
