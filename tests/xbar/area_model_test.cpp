#include "xbar/area_model.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "logic/sop_parser.hpp"
#include "netlist/nand_mapper.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

TEST(AreaModel, TwoLevelFormula) {
  EXPECT_EQ(twoLevelDims(8, 1, 5), (CrossbarDims{6, 18}));
  EXPECT_EQ(twoLevelDims(8, 1, 5).area(), 108u);
}

// Every (I, O, P) row of the paper's Table II must reproduce the printed
// area cost with the (P+O)(2I+2O) model.
struct TableIIRow {
  const char* name;
  std::size_t i, o, p, area;
};

// Print the row by name: gtest's default prints the raw bytes, including the
// address of `name`, which would make the listed test names vary per run.
void PrintTo(const TableIIRow& row, std::ostream* os) { *os << '"' << row.name << '"'; }

class TableIIAreas : public ::testing::TestWithParam<TableIIRow> {};

TEST_P(TableIIAreas, FormulaMatchesPaper) {
  const TableIIRow& row = GetParam();
  EXPECT_EQ(twoLevelDims(row.i, row.o, row.p).area(), row.area) << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, TableIIAreas,
    ::testing::Values(
        TableIIRow{"rd53", 5, 3, 31, 544}, TableIIRow{"squar5", 5, 8, 25, 858},
        TableIIRow{"bw", 5, 28, 22, 3300},  // Table II prints O=8/330: typos (see DESIGN.md)
        TableIIRow{"inc", 7, 9, 30, 1248}, TableIIRow{"misex1", 8, 7, 12, 570},
        TableIIRow{"sqrt8", 8, 4, 29, 792},  // Table II prints I=7; areas imply I=8
        TableIIRow{"sao2", 10, 4, 58, 1736}, TableIIRow{"rd73", 7, 3, 127, 2600},
        TableIIRow{"clip", 9, 5, 120, 3500}, TableIIRow{"rd84", 8, 4, 255, 6216},
        TableIIRow{"ex1010", 10, 10, 284, 11760}, TableIIRow{"table3", 14, 14, 175, 10584},
        TableIIRow{"exp5", 8, 63, 74, 19454}, TableIIRow{"apex4", 9, 19, 436, 25480},
        TableIIRow{"alu4", 14, 8, 575, 25652}),
    [](const ::testing::TestParamInfo<TableIIRow>& info) { return info.param.name; });

TEST(AreaModel, TwoLevelFromCover) {
  const Cover c = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  EXPECT_EQ(twoLevelDims(c).area(), 108u);
}

TEST(AreaModel, MultiLevelFig5Example) {
  // Paper Fig. 5: 3 horizontal x 19 vertical lines (the text's "59" is a
  // typo for 3*19 = 57).
  const Cover c = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  const NandNetwork net = mapToNand(c);
  const MultiLevelStats stats = multiLevelStats(net);
  EXPECT_EQ(stats.gates, 2u);
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.outputs, 1u);
  const CrossbarDims dims = multiLevelDims(net);
  EXPECT_EQ(dims, (CrossbarDims{3, 19}));
  EXPECT_EQ(dims.area(), 57u);
}

TEST(AreaModel, MultiLevelBeatsTwoLevelOnFig5) {
  const Cover c = parseSop("x1 + x2 + x3 + x4 + x5 x6 x7 x8");
  EXPECT_LT(multiLevelDims(mapToNand(c)).area(), twoLevelDims(c).area());
}

TEST(AreaModel, InclusionRatioFig3) {
  // Paper Section II: the Fig. 3 example uses 31 switches; with the
  // table-consistent 6x18 crossbar IR = 31/108.
  const double ir = inclusionRatio(31, {6, 18});
  EXPECT_NEAR(ir, 31.0 / 108.0, 1e-12);
}

TEST(AreaModel, RejectsEmptyShapes) {
  EXPECT_THROW(twoLevelDims(0, 1, 1), InvalidArgument);
  EXPECT_THROW(twoLevelDims(1, 0, 1), InvalidArgument);
  EXPECT_THROW(twoLevelDims(1, 1, 0), InvalidArgument);
  EXPECT_THROW(inclusionRatio(1, {0, 0}), InvalidArgument);
}

}  // namespace
}  // namespace mcx
