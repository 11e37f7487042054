// Run report: collects metric values against the catalogue and free-form
// details (sample counts, machine diagnostic, sizing), then prints the
// details as one `detail` JSON line and the result as the final line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace perfbench {

/// JSON number text for a finite double, shortest round-trip form (all the
/// digits the value carries). Throws std::invalid_argument on NaN/inf.
std::string json_number(double v);

/// JSON string literal with escaping.
std::string json_string(std::string_view s);

class Report {
 public:
  /// Records a catalogue metric; throws on names the catalogue lacks or on
  /// non-finite values.
  void set(std::string_view name, double value);

  /// Records a detail value (printed, never a metric).
  void detail(const std::string& key, double value);
  void detail(const std::string& key, const std::string& text);

  /// Marks a correctness failure; the run still reports, then exits 1.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// `detail {...}` line: details plus the failure list.
  std::string detail_line() const;

  /// The final result object. With `traced` the metric set must equal the
  /// per-layer catalogue, otherwise the end-to-end one; throws
  /// std::logic_error naming the first missing metric.
  std::string result_line(bool traced) const;

 private:
  std::map<std::string, double, std::less<>> metrics_;
  std::map<std::string, std::string> details_;  // key -> JSON value text
  std::string failures_;                        // JSON array body
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
