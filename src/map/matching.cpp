#include "map/matching.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <utility>

#include "assign/hopcroft_karp.hpp"
#include "util/error.hpp"

namespace mcx {

bool rowMatches(const BitMatrix& fm, std::size_t fmRow, const BitMatrix& cm, std::size_t cmRow) {
  return fm.rowSubsetOf(fmRow, cm, cmRow);
}

namespace {

using Word = BitMatrix::Word;

// A zeroed run of words: on the stack up to kStackWords (2048 bits), on the
// heap only past it. The per-sample bit scratch of the verdict and the
// verifier.
class ZeroedWords {
public:
  explicit ZeroedWords(std::size_t words) : heap_(words > kStackWords ? words : 0, 0) {
    if (words <= kStackWords) std::fill_n(stack_, words, Word{0});
  }
  Word* data() { return heap_.empty() ? stack_ : heap_.data(); }

private:
  static constexpr std::size_t kStackWords = 32;
  Word stack_[kStackWords];
  std::vector<Word> heap_;
};

// W consecutive adjacency words held in GCC/Clang vectors, one vector of
// 16, 8, 4, 2 or 1 words per set bit of W, widest first: any block of up
// to 16 words is one accumulator in vector registers (10 words are one zmm
// and one xmm register under AVX-512, two ymm and one xmm under AVX2, five
// SSE2 registers on generic x86-64). Vectors never cross a call boundary
// (no -Wpsabi ABI note without AVX). The lane type goes through a class
// template because GCC drops a vector_size attribute that depends on an
// alias template's own parameter.
template <std::size_t N>
struct LanesOf {
  typedef Word type __attribute__((vector_size(N * sizeof(Word))));
};

template <std::size_t W>
struct Accumulator;

template <>
struct Accumulator<0> {
  explicit Accumulator(Word) {}
  void andWith(const Word*) {}
  void store(Word*) const {}
};

template <std::size_t W>
struct Accumulator {
  static constexpr std::size_t kHead = std::bit_floor(W);
  using Lanes = typename LanesOf<kHead>::type;
  Lanes head;
  [[no_unique_address]] Accumulator<W - kHead> rest;

  /// All ones, except the block's last word, which starts as @p last.
  explicit Accumulator(Word last) : rest(last) {
    Word lanes[kHead];
    std::fill_n(lanes, kHead, ~Word{0});
    if constexpr (W == kHead) lanes[kHead - 1] = last;
    std::memcpy(&head, lanes, sizeof head);
  }
  void andWith(const Word* src) {
    Lanes v;
    std::memcpy(&v, src, sizeof v);
    head &= v;
    rest.andWith(src + kHead);
  }
  void store(Word* dst) const {
    std::memcpy(dst, &head, sizeof head);
    rest.store(dst + kHead);
  }
};

constexpr std::size_t kMaxBlockWords = 16;

// Adjacency words [w0, w0 + W) of every FM row: each row's AND accumulates
// in one Accumulator and is stored once. @p cmT is the transposed CM, @p
// last the initial value of the block's last word (the tail mask when the
// block ends the row, so an empty FM row fits every CM row).
template <std::size_t W>
void andBlock(const BitMatrix& fm, const BitMatrix& cmT, std::size_t w0, Word last,
              BitMatrix& out) {
  const std::size_t stride = out.rowWords(0).size();  // == cmT's row words
  const Word* const cmTBase = cmT.rows() > 0 ? cmT.rowWords(0).data() + w0 : nullptr;
  Word* const outBase = out.rowWords(0).data() + w0;
  const Accumulator<W> start(last);
  for (std::size_t i = 0; i < fm.rows(); ++i) {
    Accumulator<W> acc = start;
    const auto row = fm.rowWords(i);
    for (std::size_t w = 0; w < row.size(); ++w) {
      for (Word bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t c = w * BitMatrix::kWordBits +
                              static_cast<std::size_t>(std::countr_zero(bits));
        acc.andWith(cmTBase + c * stride);
      }
    }
    acc.store(outBase + i * stride);
  }
}

using BlockKernel = void (*)(const BitMatrix&, const BitMatrix&, std::size_t, Word, BitMatrix&);

template <std::size_t... I>
constexpr std::array<BlockKernel, sizeof...(I)> blockKernels(std::index_sequence<I...>) {
  return {&andBlock<I + 1>...};
}

// andBlock<W> at index W - 1.
constexpr auto kBlockKernels = blockKernels(std::make_index_sequence<kMaxBlockWords>{});

// The one candidate-adjacency kernel (see buildCandidateAdjacency): @p cmT
// receives the transposed CM, @p out the adjacency; both are reused
// buffers. The adjacency rows are built in blocks of up to 16 words (1024
// CM rows), each in one pass over the FM at a compile-time width.
void buildAdjacency(const BitMatrix& fm, const BitMatrix& cm, BitMatrix& cmT, BitMatrix& out) {
  MCX_REQUIRE(fm.cols() == cm.cols(), "buildCandidateAdjacency: column mismatch");
  out.reshape(fm.rows(), cm.rows());
  if (fm.rows() == 0 || cm.rows() == 0) return;
  cmT.assignTransposed(cm);

  const std::size_t stride = out.rowWords(0).size();
  for (std::size_t w0 = 0; w0 < stride; w0 += kMaxBlockWords) {
    const std::size_t width = std::min(kMaxBlockWords, stride - w0);
    const Word last = w0 + width == stride ? BitMatrix::tailMask(cm.rows()) : ~Word{0};
    kBlockKernels[width - 1](fm, cmT, w0, last, out);
  }
}

}  // namespace

BitMatrix buildCandidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  BitMatrix cmT, adjacency;
  buildAdjacency(fm, cm, cmT, adjacency);
  return adjacency;
}

const BitMatrix& MappingContext::candidateAdjacency(const BitMatrix& fm, const BitMatrix& cm) {
  buildAdjacency(fm, cm, cmT_, adjacency_);
  return adjacency_;
}

CostMatrix buildMatchingMatrix(const BitMatrix& adjacency) {
  CostMatrix cost(adjacency.rows(), adjacency.cols(), 1);
  for (std::size_t i = 0; i < adjacency.rows(); ++i)
    for (std::size_t j = 0; j < adjacency.cols(); ++j)
      if (adjacency.test(i, j)) cost.at(i, j) = 0;
  return cost;
}

FeasibleAssignment solveFeasibleAssignment(const BitMatrix& adjacency) {
  FeasibleAssignment result;
  const std::size_t rows = adjacency.rows();
  if (rows > adjacency.cols()) return result;
  if (rows == 0) {
    result.success = true;
    return result;
  }
  // Two size-1 certificates in one sweep, both verdicts Hopcroft-Karp
  // would reach: a row with no candidate can never be matched, and when
  // the rows' candidates together cover fewer CM rows than there are rows,
  // the whole left side violates Hall's condition (dead CM rows beyond the
  // spares).
  const std::size_t words = adjacency.rowWords(0).size();
  ZeroedWords cover(words);
  Word* const covered = cover.data();
  for (std::size_t i = 0; i < rows; ++i) {
    const Word* const row = adjacency.rowWords(i).data();
    Word any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      any |= row[w];
      covered[w] |= row[w];
    }
    if (any == 0) return result;
  }
  std::size_t coverCount = 0;
  for (std::size_t w = 0; w < words; ++w)
    coverCount += static_cast<std::size_t>(std::popcount(covered[w]));
  if (coverCount < rows) return result;

  MatchingResult matching = hopcroftKarp(adjacency);
  if (!matching.perfectForLeft(rows)) return result;
  result.success = true;
  result.assignment = std::move(matching.matchOfLeft);
  return result;
}

bool verifyMapping(const FunctionMatrix& fm, const BitMatrix& cm, const MappingResult& result,
                   const RedundantCrossbarSpec& spares) {
  return result.success && result.droppedRows.empty() &&
         verifyPartialMapping(fm, cm, result, spares);
}

bool verifyPartialMapping(const FunctionMatrix& fm, const BitMatrix& cm,
                          const MappingResult& result, const RedundantCrossbarSpec& spares) {
  if (result.rowAssignment.size() != fm.rows()) return false;
  // The FM as the mapping placed it: its own columns, or embedded on the
  // result's pair choice (a malformed choice is a rejected claim).
  FunctionMatrix placed;
  const bool embeds = !result.inputPermutation.empty() || !result.outputPairs.empty() ||
                      spares.hasSparePairs();
  if (embeds) {
    try {
      placed = fm.embedded(spares, result.inputPermutation, result.outputPairs);
    } catch (const InvalidArgument&) {
      return false;
    }
  }
  const BitMatrix& bits = embeds ? placed.bits() : fm.bits();
  if (bits.cols() != cm.cols()) return false;
  // droppedRows must be exactly the unassigned rows, strictly ascending.
  // Distinctness via a CM-row bitmask on the stack (no sort, no heap below
  // ZeroedWords' size: this runs once per successful Monte Carlo sample).
  // The fit test reads both matrices directly, independent of any
  // adjacency.
  const std::size_t words = (bits.cols() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits;
  ZeroedWords usedRows((cm.rows() + BitMatrix::kWordBits - 1) / BitMatrix::kWordBits);
  Word* const used = usedRows.data();
  std::size_t nextDrop = 0;
  for (std::size_t r = 0; r < fm.rows(); ++r) {
    const std::size_t cmRow = result.rowAssignment[r];
    if (cmRow == MappingResult::kUnassigned) {
      if (nextDrop >= result.droppedRows.size() || result.droppedRows[nextDrop] != r)
        return false;
      ++nextDrop;
      continue;
    }
    if (cmRow >= cm.rows()) return false;
    Word& word = used[cmRow / BitMatrix::kWordBits];
    const Word mask = Word{1} << (cmRow % BitMatrix::kWordBits);
    if ((word & mask) != 0) return false;
    word |= mask;
    const Word* const required = bits.rowWords(r).data();
    const Word* const functional = cm.rowWords(cmRow).data();
    Word missing = 0;
    for (std::size_t w = 0; w < words; ++w) missing |= required[w] & ~functional[w];
    if (missing != 0) return false;
  }
  return nextDrop == result.droppedRows.size();
}

}  // namespace mcx
