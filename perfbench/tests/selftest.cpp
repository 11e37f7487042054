// Self-test of the benchmark's own helpers: exact percentiles, the per-op
// median throughput, the read mix and seeded request streams, the choice of
// steal-gated rounds, and the report/catalogue contract. Exits non-zero on
// the first failed check.
//
//   ctest --test-dir .bench_build/perfbench     (after perfbench/run.py built it)
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>

#include "catalogue.hpp"
#include "report.hpp"
#include "rounds.hpp"
#include "stats.hpp"
#include "traffic.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1 + std::abs(b)); }

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

void test_quantile() {
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median of 1..4 is 2.5");
  expect(near(quantile({4, 1, 3, 2}, 0.0), 1.0), "q=0 is the minimum");
  expect(near(quantile({4, 1, 3, 2}, 1.0), 4.0), "q=1 is the maximum");
  expect(near(quantile({4, 1, 3, 2}, 0.25), 1.75), "type-7 interpolation");
  expect(near(quantile({7}, 0.99), 7.0), "one sample is every quantile");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile(hundred, 0.99), 99.01), "p99 of 1..100");
  expect(throws([] { quantile({}, 0.5); }), "empty sample throws");
  expect(throws([] { quantile({1}, 1.5); }), "q outside [0,1] throws");
  expect(near(median({3, 1, 2}), 2.0), "median of three");
}

void test_per_op_median() {
  // 1 GB per op; ops of 1 s, 2 s and 100 s: the median op (2 s) sets it.
  expect(near(per_op_median_gbps(1'000'000'000, {1.0, 100.0, 2.0}), 0.5),
         "per-op median throughput ignores the outlier op");
  expect(throws([] { per_op_median_gbps(1, {0.0}); }),
         "zero median op time throws");
}

std::vector<FieldLayout> layouts() {
  FieldLayout one_d{20000, {0, 4096, 8192, 12288, 16384}};  // short last chunk
  FieldLayout slabs{3 * 65536, {0, 65536, 131072}};
  return {one_d, slabs};
}

void test_read_mix() {
  // One field of two 10-element chunks: a chunk read decodes 10 elements; a
  // range from element e decodes 10 when e is 0 or >= 10 (it stops at the
  // field's end) and 20 otherwise, 9 starts of 20: 14.5 on average.
  const std::vector<FieldLayout> two{{20, {0, 10}}};
  const ReadMix m = read_mix(two);
  expect(near(m.chunk_decoded_elems, 10.0), "chunk read decodes one chunk");
  expect(near(m.range_decoded_elems, 14.5), "range decodes what it straddles");
  expect(near(m.range_share, 10.0 / 24.5), "share balances decoded elements");
  expect(decoded_elems(two, {true, 0, 0, 5, 15}) == 20, "straddling range");
  expect(decoded_elems(two, {true, 0, 0, 10, 20}) == 10, "aligned range");
  expect(decoded_elems(two, {false, 0, 1, 0, 0}) == 10, "chunk read");
}

void test_read_streams() {
  const auto fields = layouts();
  const auto a = make_read_stream(42, 0, fields, 2000);
  expect(a == make_read_stream(42, 0, fields, 2000),
         "one seed yields one request list");
  expect(a != make_read_stream(42, 1, fields, 2000),
         "connections get different streams");
  expect(a != make_read_stream(43, 0, fields, 2000),
         "seeds give different streams");
  const auto prefix = make_read_stream(42, 0, fields, 50);
  expect(std::equal(prefix.begin(), prefix.end(), a.begin()),
         "a shorter run replays a prefix of the same list");
  double decoded[2] = {0, 0};  // chunk reads, ranges
  for (const ReadRequest& r : a) {
    expect(r.field < fields.size(), "field in range");
    const FieldLayout& f = fields[r.field];
    if (r.is_range) {
      const std::uint64_t len = r.elem_end - r.elem_begin;
      expect(r.elem_end <= f.elems, "range inside the field");
      expect(len == std::min(f.chunk_size(f.chunk_of(r.elem_begin)),
                             f.elems - r.elem_begin),
             "range as long as the chunk holding its start");
    } else {
      expect(r.chunk < f.chunk_offsets.size(), "chunk in range");
    }
    decoded[r.is_range] += static_cast<double>(decoded_elems(fields, r));
  }
  const double range_half = decoded[1] / (decoded[0] + decoded[1]);
  expect(range_half > 0.4 && range_half < 0.6,
         "chunk and range reads decode about half the elements each");

  const auto schedule = make_read_schedule(42, fields, 2, 101);
  expect(schedule == make_read_schedule(42, fields, 2, 101),
         "one seed yields one schedule");
  const auto second = make_read_stream(42, 1, fields, 50);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    expect(schedule[i] == (i % 2 == 0 ? a : second)[i / 2],
           "request i is the next request of connection i % 2");
  }
}

void test_kept_rounds() {
  using V = std::vector<std::size_t>;
  expect(kept_rounds({0.0, 0.01, 0.02}, 3) == V{0, 1, 2}, "quiet rounds all kept");
  expect(kept_rounds({0.2, 0.01, 0.15, 0.0, 0.03, 0.02, 0.0}, 4) == V{1, 3, 4, 5},
         "stolen rounds set aside; the first rounds within the gate kept");
  expect(kept_rounds({0.2, 0.01, 0.15, 0.12}, 3) == V{1, 2, 3},
         "too few within the gate: the least stolen of the rest fill up");
  expect(kept_rounds({0.2}, 3) == V{0}, "never more rounds than ran");
}

void test_report_and_catalogue() {
  std::set<std::string_view> names;
  for (const auto specs : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricSpec& m : specs) {
      expect(names.insert(m.name).second, "unique name " + std::string(m.name));
    }
  }

  Report r;
  expect(throws([&] { r.set("no_such_metric", 1.0); }), "unknown metric throws");
  expect(throws([&] { r.set("setup_s", std::nan("")); }), "NaN throws");
  expect(throws([&] { (void)r.result_line(false); }), "missing metric throws");
  for (const MetricSpec& m : end_to_end_metrics()) r.set(m.name, 0.1);
  r.add_attempted(3);
  const std::string line = r.result_line(false);
  expect(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0) == 0,
         "result line header");
  expect(line.find("\"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}") !=
             std::string::npos,
         "metric printed with value and unit");
  r.fail("boom");
  expect(!r.correct() && r.result_line(false).find("\"correct\": false") !=
                             std::string::npos,
         "a failure makes the run incorrect");
  expect(json_number(1.5e-7) == "1.5e-07", "shortest round-trip numbers");
}

}  // namespace

int main() {
  test_quantile();
  test_per_op_median();
  test_read_mix();
  test_read_streams();
  test_kept_rounds();
  test_report_and_catalogue();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
