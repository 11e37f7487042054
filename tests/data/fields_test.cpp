#include "data/fields.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "core/huffman_codec.hpp"
#include "sz/compressor.hpp"

namespace ohd::data {
namespace {

TEST(Fields, SuiteHasEightDatasetsInPaperOrder) {
  const auto suite = evaluation_suite(0.02);
  ASSERT_EQ(suite.size(), 8u);
  const auto& names = dataset_names();
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(suite[i].name, names[i]);
  }
}

TEST(Fields, GeneratorsAreDeterministic) {
  const auto a = make_hacc(0.01);
  const auto b = make_hacc(0.01);
  EXPECT_EQ(a.data, b.data);
}

TEST(Fields, SeedsChangeContent) {
  const auto a = make_hacc(0.01, 1);
  const auto b = make_hacc(0.01, 2);
  EXPECT_NE(a.data, b.data);
}

TEST(Fields, DimsMatchDataSize) {
  for (const auto& f : evaluation_suite(0.02)) {
    EXPECT_EQ(f.dims.count(), f.data.size()) << f.name;
    EXPECT_GE(f.dims.rank, 1u);
    EXPECT_LE(f.dims.rank, 3u);
  }
}

TEST(Fields, ScaleGrowsElementCount) {
  EXPECT_GT(make_nyx(0.5).data.size(), make_nyx(0.05).data.size());
}

TEST(Fields, MakeByNameMatchesSuite) {
  for (const auto& name : dataset_names()) {
    const auto f = make_by_name(name, 0.01);
    EXPECT_EQ(f.name, name);
    EXPECT_FALSE(f.data.empty());
  }
  EXPECT_THROW(make_by_name("nope"), std::invalid_argument);
}

TEST(Fields, ValuesAreFinite) {
  for (const auto& f : evaluation_suite(0.02)) {
    for (float v : f.data) ASSERT_TRUE(std::isfinite(v)) << f.name;
  }
}

// Compression-regime checks: each dataset's QUANTIZATION-CODE compression
// ratio (the quantity the paper's Table IV / Fig. 3 track — e.g. "the
// compression ratio is 3.86" for HACC in §IV-C) must land in the band of its
// real counterpart. Bands are generous — the point is the ORDERING
// (EXAALT < QMCPack < HACC << RTM < CESM ~ Hurricane < GAMESS < Nyx) and the
// regime, not the third digit.
struct Band {
  const char* name;
  double lo, hi;
};

// gtest's default printer dumps the raw bytes of `name`'s pointer, which ASLR
// moves on every run; printing the values keeps the listed test names stable.
void PrintTo(const Band& band, std::ostream* os) {
  *os << band.name << " (" << band.lo << ", " << band.hi << ")";
}

class FieldRegime : public ::testing::TestWithParam<Band> {};

TEST_P(FieldRegime, QuantCodeRatioFallsInBand) {
  const Band band = GetParam();
  const auto f = make_by_name(band.name, 0.15);
  float lo = f.data[0], hi = f.data[0];
  for (float v : f.data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const auto q = sz::lorenzo_quantize(f.data, f.dims, 1e-3 * (hi - lo), 512);
  const auto enc =
      core::encode_for_method(core::Method::CuszNaive, q.codes,
                              q.alphabet_size());
  const double ratio = static_cast<double>(q.codes.size() * 2) /
                       static_cast<double>(enc.compressed_bytes());
  EXPECT_GE(ratio, band.lo) << band.name;
  EXPECT_LE(ratio, band.hi) << band.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRegimes, FieldRegime,
    ::testing::Values(Band{"HACC", 2.4, 4.3}, Band{"EXAALT", 1.6, 3.0},
                      Band{"CESM", 6.0, 11.0}, Band{"Nyx", 10.0, 20.0},
                      Band{"Hurricane", 5.5, 12.0},
                      Band{"QMCPack", 1.7, 3.2}, Band{"RTM", 5.0, 10.5},
                      Band{"GAMESS", 9.0, 15.0}),
    [](const ::testing::TestParamInfo<Band>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ohd::data
