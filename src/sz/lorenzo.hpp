// Prediction + error-bounded quantization, the cuSZ "dual-quant" front end:
// a Lorenzo predictor (1-D/2-D/3-D) over the RECONSTRUCTED field and a linear
// quantizer with a user error bound. Out-of-range predictions become
// outliers stored exactly, as in cuSZ (code 0 is reserved for them).
//
// Decompression-side counterparts: the staged lorenzo_reconstruct (any rank,
// needs the whole code vector), and the streaming Lorenzo1DSink — the back
// half of the fused decode→dequantize→reconstruct write path, which consumes
// quantization codes one at a time in stream order and writes reconstructed
// floats straight into the destination buffer, with no lattice vector and
// float-for-float identical output to the staged path.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace ohd::sz {

struct Dims {
  std::array<std::size_t, 3> extent{1, 1, 1};  // x (fastest), y, z
  std::uint32_t rank = 1;

  static Dims d1(std::size_t nx) { return {{nx, 1, 1}, 1}; }
  static Dims d2(std::size_t nx, std::size_t ny) { return {{nx, ny, 1}, 2}; }
  static Dims d3(std::size_t nx, std::size_t ny, std::size_t nz) {
    return {{nx, ny, nz}, 3};
  }

  std::size_t count() const { return extent[0] * extent[1] * extent[2]; }

  /// True when the extent product wraps 64 bits — only possible for
  /// deserialized dims, which the parsers must reject before count() is
  /// used to size buffers.
  bool count_overflows() const {
    const std::size_t ab = extent[0] * extent[1];
    if (extent[0] != 0 && extent[1] != 0 && ab / extent[1] != extent[0]) {
      return true;
    }
    return ab != 0 && extent[2] != 0 && (ab * extent[2]) / extent[2] != ab;
  }
};

struct Outlier {
  std::uint64_t index;
  float value;
};

struct QuantizedField {
  Dims dims;
  double error_bound = 0.0;  // absolute bound used for quantization
  std::uint32_t radius = 512;
  std::vector<std::uint16_t> codes;    // 0 = outlier, else q + radius
  std::vector<Outlier> outliers;

  std::uint32_t alphabet_size() const { return 2 * radius; }
  double outlier_fraction() const {
    return codes.empty() ? 0.0
                         : static_cast<double>(outliers.size()) /
                               static_cast<double>(codes.size());
  }
};

/// Quantizes `data` with the given ABSOLUTE error bound. The predictor uses
/// reconstructed values, so decompression reproduces the field within the
/// bound exactly.
QuantizedField lorenzo_quantize(std::span<const float> data, const Dims& dims,
                                double abs_error_bound,
                                std::uint32_t radius = 512);

/// Reconstructs the field from quantization codes and outliers.
std::vector<float> lorenzo_reconstruct(const QuantizedField& q);

/// Same reconstruction from externally decoded codes (the decompression
/// pipeline path).
std::vector<float> lorenzo_reconstruct(std::span<const std::uint16_t> codes,
                                       std::span<const Outlier> outliers,
                                       const Dims& dims, double abs_error_bound,
                                       std::uint32_t radius);

/// Streaming 1-D Lorenzo reconstruction: push(code) dequantizes and writes
/// out[i] for consecutive i, carrying only the previous lattice value (the
/// 1-D predictor's whole neighborhood). Outlier records are consumed in
/// index order exactly like the staged path; finish() validates that every
/// element was produced and every outlier used. Arithmetic is identical to
/// lorenzo_reconstruct at rank 1, so the floats match bit for bit.
class Lorenzo1DSink {
 public:
  Lorenzo1DSink(std::span<float> out, std::span<const Outlier> outliers,
                double abs_error_bound, std::uint32_t radius)
      : out_(out),
        outliers_(outliers),
        ebx2_(2.0 * abs_error_bound),
        r_(static_cast<std::int64_t>(radius)) {}

  void operator()(std::uint16_t code) {
    if (i_ >= out_.size()) {
      throw std::invalid_argument("more quant codes than output elements");
    }
    if (code == 0) {
      if (next_outlier_ >= outliers_.size() ||
          outliers_[next_outlier_].index != i_) {
        throw std::invalid_argument("missing outlier record");
      }
      const float v = outliers_[next_outlier_++].value;
      out_[i_] = v;
      lattice_ = std::llround(static_cast<double>(v) / ebx2_);
    } else {
      lattice_ += static_cast<std::int64_t>(code) - r_;
      out_[i_] = static_cast<float>(static_cast<double>(lattice_) * ebx2_);
    }
    ++i_;
  }

  void finish() const {
    if (i_ != out_.size()) {
      throw std::invalid_argument("fewer quant codes than output elements");
    }
    if (next_outlier_ != outliers_.size()) {
      throw std::invalid_argument("unused outlier records");
    }
  }

 private:
  std::span<float> out_;
  std::span<const Outlier> outliers_;
  std::size_t next_outlier_ = 0;
  std::size_t i_ = 0;
  std::int64_t lattice_ = 0;
  double ebx2_;
  std::int64_t r_;
};

}  // namespace ohd::sz
