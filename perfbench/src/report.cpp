#include "report.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "catalogue.hpp"

namespace perfbench {

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

namespace {

const MetricSpec* find_spec(std::string_view name) {
  for (const auto specs : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricSpec& m : specs) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

}  // namespace

void Report::set(std::string_view name, double value) {
  if (find_spec(name) == nullptr) {
    throw std::logic_error("metric not in the catalogue: " + std::string(name));
  }
  json_number(value);  // rejects NaN/inf here, where the bug is
  metrics_[std::string(name)] = value;
}

void Report::detail(const std::string& key, double value) {
  details_[key] = json_number(value);
}

void Report::detail(const std::string& key, const std::string& text) {
  details_[key] = json_string(text);
}

void Report::fail(const std::string& why) {
  if (!failures_.empty()) failures_ += ", ";
  failures_ += json_string(why);
}

std::string Report::detail_line() const {
  std::string out = "detail {";
  bool first = true;
  for (const auto& [k, v] : details_) {
    out += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  out += std::string(first ? "" : ", ") + "\"failures\": [" + failures_ + "]}";
  return out;
}

std::string Report::result_line(bool traced) const {
  const auto specs = traced ? per_layer_metrics() : end_to_end_metrics();
  std::string body;
  for (const MetricSpec& m : specs) {
    const auto it = metrics_.find(m.name);
    if (it == metrics_.end()) {
      throw std::logic_error("metric not measured: " + std::string(m.name));
    }
    if (!body.empty()) body += ", ";
    body += json_string(m.name) + ": {\"value\": " + json_number(it->second) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  return std::string("{\"correct\": ") + (correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
         body + "}}";
}

}  // namespace perfbench
