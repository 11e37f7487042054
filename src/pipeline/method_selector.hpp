// Adaptive per-chunk compression planning: probe a chunk's local
// compressibility (quant-code entropy, outlier density, run structure), then
// pick the cheapest decoder method for it from an analytic cost model built
// on the same core::CostModel cycle charges the simulated decoders pay, plus
// the DeviceSpec transfer model for the bytes each encoding ships.
//
// The model deliberately mirrors the two-term shape of cudasim::PerfModel:
// a machine-wide throughput term (total warp cycles over the issue rate) and
// a serial critical-path term (one thread's dependent chain), whichever is
// larger, plus launch overhead and a PCIe transfer term for the encoded
// payload + sidecar. That reproduces the paper's cost cliffs — the naive
// cuSZ decoder is critical-path-bound (one thread per coarse chunk), the
// self-sync decoder pays speculative overdecode + vote cycles, the gap-array
// decoder pays its sidecar bytes instead — without running a simulation per
// candidate.
//
// plan_from_probes() extends the per-chunk choice with field-level SHARED
// codebooks: one canonical Huffman book over the field's pooled quant
// histogram, which each chunk references instead of carrying a private book
// whenever that is byte-cheaper (a ratio-driven choice; chunks whose local
// histogram diverges keep a private book).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/huffman_codec.hpp"
#include "cudasim/device_spec.hpp"
#include "huffman/codebook.hpp"
#include "sz/compressor.hpp"
#include "sz/lorenzo.hpp"

namespace ohd::pipeline {

/// Local compressibility statistics of one quantized chunk, the selector's
/// input. All fields are deterministic functions of the chunk.
struct ChunkProbe {
  std::uint64_t num_symbols = 0;
  std::uint32_t alphabet_size = 0;
  double entropy_bits = 0.0;     // Shannon entropy of the quant codes
  double avg_code_bits = 0.0;    // expected bits/symbol under the chunk's
                                 // own canonical Huffman code
  double outlier_fraction = 0.0; // exact-value records per element
  double mean_run_length = 1.0;  // consecutive equal quant codes
  std::vector<std::uint64_t> histogram;    // quant-code frequencies
  std::vector<std::uint8_t> code_lengths;  // private canonical lengths
};

ChunkProbe probe_chunk(const sz::QuantizedField& q);

/// Predicted cost of decoding one chunk with one method.
struct MethodEstimate {
  core::Method method = core::Method::GapArrayOptimized;
  double decode_seconds = 0.0;     // simulated kernel time (two-term model)
  std::uint64_t stored_bytes = 0;  // encoded payload + sidecar (no codebook)
  double transfer_seconds = 0.0;   // stored_bytes over the PCIe model

  double total_seconds() const { return decode_seconds + transfer_seconds; }
};

/// What "cheapest" means for a chunk:
///  * DecodePlusTransfer — decode time plus shipping the encoded bytes over
///    PCIe (the paper's Figure 5 scenario; the default, since an archive's
///    chunks are stored and moved). This is where the families genuinely
///    trade places: the self-sync stream carries no sidecar, the gap array
///    pays one byte per subsequence for exact start offsets, the naive
///    layout pads per coarse chunk instead of per sequence.
///  * DecodeOnly — device-resident data (Figure 4); the optimized gap-array
///    decoder dominates here, as in the paper's Table V.
enum class SelectionObjective {
  DecodePlusTransfer,
  DecodeOnly,
};

/// Regression-fitted correction of one method's analytic decode estimate
/// against MEASURED simulated chunk costs:
///   decode_seconds = scale * analytic + offset_s.
/// Produced by scripts/calibrate_selector.py from `bench_micro_kernels
/// --calibrate` output; the committed fit is default_calibration().
struct MethodCalibration {
  core::Method method = core::Method::GapArrayOptimized;
  double scale = 1.0;
  double offset_s = 0.0;
};

/// The committed calibration (src/pipeline/selector_calibration.hpp),
/// regression-fitted over the calibration corpus with the current CostModel
/// defaults. Apply with MethodSelector::calibrate(); selectors start
/// uncalibrated (identity), and field planning (plan_from_probes) always
/// prices through a calibrated copy.
std::span<const MethodCalibration> default_calibration();

/// Ranks the float-capable decoder families for a chunk. Candidates are the
/// best member of each family evaluated in the paper (naive cuSZ, optimized
/// self-sync, optimized gap-array); the Original variants exist for A/B
/// benchmarks, not for archive planning.
class MethodSelector {
 public:
  explicit MethodSelector(
      core::DecoderConfig decoder = {},
      cudasim::DeviceSpec spec = cudasim::DeviceSpec::v100(),
      SelectionObjective objective = SelectionObjective::DecodePlusTransfer)
      : decoder_(decoder), spec_(std::move(spec)), objective_(objective) {}

  std::span<const core::Method> candidates() const;

  MethodEstimate estimate(core::Method method, const ChunkProbe& probe) const;

  /// All candidate estimates, cheapest total_seconds() first; ties broken by
  /// candidate order, so the ranking is fully deterministic.
  std::vector<MethodEstimate> rank(const ChunkProbe& probe) const;

  /// The cheapest method for this chunk.
  core::Method select(const ChunkProbe& probe) const;

  /// Installs fitted per-method corrections (scale must be positive and
  /// finite; throws std::invalid_argument otherwise). Estimates for methods
  /// without an entry keep the identity correction.
  void calibrate(std::span<const MethodCalibration> calibration);

  const core::DecoderConfig& decoder() const { return decoder_; }
  const cudasim::DeviceSpec& device() const { return spec_; }
  SelectionObjective objective() const { return objective_; }

 private:
  static constexpr std::size_t kMethodSlots = 5;  // |core::Method|

  core::DecoderConfig decoder_;
  cudasim::DeviceSpec spec_;
  SelectionObjective objective_ = SelectionObjective::DecodePlusTransfer;
  std::array<double, kMethodSlots> scale_{1.0, 1.0, 1.0, 1.0, 1.0};
  std::array<double, kMethodSlots> offset_s_{0.0, 0.0, 0.0, 0.0, 0.0};
};

/// Field-level planning knobs (FieldSpec::plan).
struct PlanOptions {
  /// Per-chunk method selection, ranked through the committed regression
  /// fit (default_calibration()).
  bool auto_method = false;
  bool shared_codebook = false; // field-level codebook, ratio-driven refs
};

/// The planner's decision for one chunk.
struct ChunkPlan {
  core::Method method = core::Method::GapArrayOptimized;
  bool use_shared_codebook = false;
  // Estimated stored bytes of the chunk's Huffman stream under each codebook
  // choice (payload + codebook framing), the inputs of the ratio decision.
  std::uint64_t est_private_bytes = 0;
  std::uint64_t est_shared_bytes = 0;
  /// The probe's canonical code lengths (moved out of the probe by
  /// plan_from_probes), so encoding a private-book chunk can rebuild its
  /// codebook without repeating the histogram + Huffman pass.
  std::vector<std::uint8_t> private_code_lengths;
};

struct FieldPlan {
  std::vector<ChunkPlan> chunks;
  bool has_shared_codebook = false;
  huffman::Codebook shared_codebook;  // valid iff has_shared_codebook
};

/// Plans one field from its chunks' probes: per-chunk method (selector or
/// the fixed `default_method`), plus the shared-codebook decision when
/// enabled — the shared book is built over the POOLED histogram of all
/// chunks, and each chunk references it only when that is strictly
/// byte-cheaper than carrying its private book. A field whose every chunk
/// prefers its private book gets no shared-codebook record at all.
/// BatchScheduler::compress_to runs probe_chunk inside each quantize task,
/// so only this cheap pooled-histogram work stays on the collecting thread.
/// Probes are consumed: each chunk's code lengths move into its ChunkPlan.
FieldPlan plan_from_probes(std::vector<ChunkProbe> probes,
                           core::Method default_method,
                           const PlanOptions& options,
                           const MethodSelector& selector);

/// Encodes one planned chunk into its serialized frame (the encode task of
/// BatchScheduler::compress_to's planned path). Shared-book chunks encode
/// against `shared` (required non-null) and omit their codebook bytes;
/// private-book chunks rebuild their codebook from the plan's cached
/// lengths when available.
std::vector<std::uint8_t> encode_planned_chunk(sz::QuantizedField&& q,
                                               const ChunkPlan& plan,
                                               const sz::CompressorConfig& config,
                                               const huffman::Codebook* shared);

}  // namespace ohd::pipeline
