// Synthesis pinned by content: every circuit preset (every paper benchmark
// row plus the derived espresso-polished presets) compiled two-level and
// multi-level, its function matrix hashed over dimensions and row words.
// CircuitPipeline's digests pin the registry rows two-level; this table adds
// the derived presets and every multi-level realization, so a drift in a
// generator, the minimizers, factoring or NAND mapping fails a unit test
// before it reaches a committed BENCH count. The values were recorded
// before cubes kept their bits inline and randomSop scanned flat words.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "circuit/pipeline.hpp"
#include "circuit/registry.hpp"
#include "util/error.hpp"

namespace mcx {
namespace {

struct PinnedMatrix {
  const char* preset;
  bool multiLevel;
  std::size_t rows;
  std::size_t cols;
  std::uint64_t hash;  // 0: the realization throws InvalidArgument
};

// FNV-1a over the bytes of rows, cols and every row's words, little end first.
std::uint64_t fmHash(const FunctionMatrix& fm) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(fm.rows());
  mix(fm.cols());
  for (std::size_t r = 0; r < fm.rows(); ++r)
    for (const BitMatrix::Word w : fm.bits().rowWords(r)) mix(w);
  return h;
}

const PinnedMatrix kPinned[] = {
    {"rd53", false, 38, 16, 0x4d56c823f61a2a34ull},
    {"rd53", true, 46, 56, 0xc54980530f8bc43cull},
    {"squar5", false, 33, 26, 0x59b6d59a114ce3e1ull},
    {"squar5", true, 65, 75, 0x46b865c255ebe0cfull},
    {"bw", false, 50, 66, 0x0e5172b567a4a5fbull},
    {"bw", true, 289, 299, 0xb552bfdd16c99f04ull},
    {"inc", false, 39, 32, 0xd400d1d83a735dc2ull},
    {"inc", true, 141, 155, 0xc4c95945bf75e3c9ull},
    {"misex1", false, 19, 30, 0x7cb137eace35326dull},
    {"misex1", true, 80, 96, 0x9a9e950e5ad83d6bull},
    {"sqrt8", false, 28, 24, 0xd618d35c38569189ull},
    {"sqrt8", true, 50, 66, 0xf9dab7f1aaf5382aull},
    {"sao2", false, 62, 28, 0xc62f9de1d28d7124ull},
    {"sao2", true, 198, 218, 0xcfced2fb561feaffull},
    {"rd73", false, 150, 20, 0xeea59267916fe424ull},
    {"rd73", true, 88, 102, 0x32e0bc4ff8bb759bull},
    {"clip", false, 125, 28, 0x64f691fe8a8180ecull},
    {"clip", true, 0, 0, 0},  // a constant output: mapToNand refuses it
    {"rd84", false, 298, 24, 0x9908e66f051fe411ull},
    {"rd84", true, 121, 137, 0x1653157ce9a6599aull},
    {"ex1010", false, 294, 40, 0xcb2192aebc78c60bull},
    {"ex1010", true, 1416, 1436, 0xe7a4a172d146f706ull},
    {"table3", false, 189, 56, 0x832cc4ab5dce7203ull},
    {"table3", true, 1511, 1539, 0xcaa173de41de1c60ull},
    {"misex3c", false, 211, 56, 0x2a6c76940038c53dull},
    {"misex3c", true, 808, 836, 0x90a537819cb4c57cull},
    {"exp5", false, 137, 142, 0x570e7fc5de0b37c4ull},
    {"exp5", true, 2125, 2141, 0xa182c2e2815f7c86ull},
    {"apex4", false, 455, 56, 0x65cfad69c2f440feull},
    {"apex4", true, 3321, 3339, 0x23ebd2f226d58c9bull},
    {"alu4", false, 583, 44, 0xa6604da546b09a40ull},
    {"alu4", true, 2156, 2184, 0xf0eea8997c642c56ull},
    {"con1", false, 11, 18, 0xd81903328102b08dull},
    {"con1", true, 22, 36, 0x394c78ea920d1569ull},
    {"b12", false, 52, 48, 0x807e13386448263bull},
    {"b12", true, 186, 216, 0x1fd8b74c2e0aef3full},
    {"t481", false, 257, 34, 0x625b01ad34928bceull},
    {"t481", true, 17, 49, 0x41617d9d667389b7ull},
    {"cordic", false, 1807, 50, 0x1304658f5899c324ull},
    {"cordic", true, 44, 90, 0x5761d5eca22fa863ull},
    {"rd53-min", false, 35, 16, 0x4b9c2fc832775810ull},
    {"rd53-min", true, 53, 63, 0x7b8640a0e20b1d66ull},
    {"sqrt8-min", false, 43, 24, 0x83e863bce6fa0330ull},
    {"sqrt8-min", true, 48, 64, 0x181f8234323c05d9ull},
    {"majority7-min", false, 36, 16, 0x433031dff03a3511ull},
    {"majority7-min", true, 23, 37, 0x676dcf2d5d8fc8c3ull},
    {"nn-small", false, 43, 18, 0x88307783444e66e3ull},
    {"nn-small", true, 37, 49, 0x7854bdca8a7601b5ull},
    {"nn-wide", false, 206, 24, 0x1df5440aa3bac6a7ull},
    {"nn-wide", true, 94, 110, 0xe7b442b59ee24a0aull},
    {"fig5", false, 6, 18, 0xa9b0889290d3648cull},
    {"fig5", true, 3, 19, 0xb7fa1048dc441934ull},
};

TEST(SynthesisPin, EveryPresetKeepsItsFunctionMatrix) {
  for (const PinnedMatrix& pin : kPinned) {
    SCOPED_TRACE(testing::Message() << pin.preset << (pin.multiLevel ? " multi-level" : " two-level"));
    const CircuitPreset* preset = findCircuitPreset(pin.preset);
    ASSERT_NE(preset, nullptr);
    CircuitSpec spec = preset->spec;
    spec.realize = pin.multiLevel ? CircuitSpec::Realize::MultiLevel : CircuitSpec::Realize::TwoLevel;
    if (pin.hash == 0) {
      EXPECT_THROW(buildCircuit(spec), InvalidArgument);
      continue;
    }
    const Circuit circuit = buildCircuit(spec);
    EXPECT_EQ(circuit.fm.rows(), pin.rows);
    EXPECT_EQ(circuit.fm.cols(), pin.cols);
    EXPECT_EQ(fmHash(circuit.fm), pin.hash);
  }
}

TEST(SynthesisPin, TableCoversEveryPresetBothWays) {
  std::set<std::pair<std::string, bool>> pinned;
  for (const PinnedMatrix& pin : kPinned) pinned.insert({pin.preset, pin.multiLevel});
  std::set<std::pair<std::string, bool>> presets;
  for (const CircuitPreset& preset : circuitPresets()) {
    presets.insert({preset.name, false});
    presets.insert({preset.name, true});
  }
  EXPECT_EQ(pinned, presets);
}

}  // namespace
}  // namespace mcx
