#include "pipeline/method_selector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "huffman/decode_table.hpp"
#include "pipeline/selector_calibration.hpp"
#include "sz/serialize.hpp"

namespace ohd::pipeline {

namespace {

// Calibration-level constants of the analytic estimates, chosen to mirror
// how the simulated decoders spend their cycles (see the per-method charges
// in core/naive_decoder.cpp, core/selfsync_decoder.cpp, core/gap_decoder.cpp
// and the decode_one/decode_one_lut steps):
//  * the gap-array decoder walks its stream twice (count pass, then
//    decode+write from the exclusive-scanned output indices);
//  * the optimized self-sync decoder pays a third, speculative walk on
//    average before its synchronization points validate, plus a vote per
//    sync iteration;
//  * every decoder shares the outlier-scatter kernel, charged per record.
constexpr double kGapDecodePasses = 2.0;
// The optimized self-sync decoder's extra walk is SPECULATIVE: a
// subsequence re-decodes from an unaligned start until its synchronization
// point validates. Long runs of equal symbols mean fewer distinct codeword
// boundaries per subsequence, so validation lands after fewer re-decoded
// codewords — the speculative pass shrinks with run structure (one full
// extra pass at run length 1, decaying with its square root).
constexpr double kSelfSyncSpeculativePasses = 1.0;
constexpr double kSelfSyncVoteIters = 3.0;
constexpr std::uint32_t kOutlierScatterCycles = 4;
// Average alignment padding of one coarse cuSZ chunk (bits): chunks are
// padded to a 32-bit unit boundary, so 16 bits in expectation.
constexpr double kNaiveChunkPadBits = 16.0;

std::uint64_t div_ceil(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Expected complete codewords one multi-symbol probe retires: the K-bit
/// window holds ~K/b codewords of average length b, capped by the entry's
/// packing limit and never below one.
double multi_symbols_per_probe(double avg_code_bits) {
  const double per_window =
      static_cast<double>(huffman::DecodeTable::kDefaultIndexBits) /
      std::max(1.0, avg_code_bits);
  return std::clamp(per_window, 1.0,
                    static_cast<double>(huffman::DecodeTable::kMaxMultiSymbols));
}

/// Per-symbol decode cycles of the fine-grained families (self-sync and
/// gap-array share the warp-broadcast LUT rates).
double fine_symbol_cycles(const ohd::core::CostModel& c, bool lut,
                          bool multisym, double b, double ladder_bits) {
  if (!lut) return b * c.cycles_per_bit + c.cycles_per_symbol;
  if (multisym) {
    const double m = multi_symbols_per_probe(b);
    return (c.cycles_per_probe_multi +
            (m - 1.0) * c.cycles_per_extra_symbol_multi) /
               m +
           ladder_bits * c.cycles_per_bit;
  }
  return c.cycles_per_symbol_lut + ladder_bits * c.cycles_per_bit;
}

/// Per-symbol decode cycles of the naive coarse-grained decoder (serialized
/// table gathers; the multi-symbol batch amortizes the gather itself).
double naive_symbol_cycles(const ohd::core::CostModel& c, bool lut,
                           bool multisym, double b, double ladder_bits) {
  if (!lut) return b * c.cycles_per_bit_naive + c.cycles_per_symbol_naive;
  if (multisym) {
    const double m = multi_symbols_per_probe(b);
    return (c.cycles_per_probe_multi_naive +
            (m - 1.0) * c.cycles_per_extra_symbol_multi) /
               m +
           ladder_bits * c.cycles_per_bit_naive;
  }
  return c.cycles_per_symbol_lut_naive + ladder_bits * c.cycles_per_bit_naive;
}

}  // namespace

ChunkProbe probe_chunk(const sz::QuantizedField& q) {
  if (q.codes.empty()) {
    throw std::invalid_argument("cannot probe an empty chunk");
  }
  ChunkProbe p;
  p.num_symbols = q.codes.size();
  p.alphabet_size = q.alphabet_size();
  p.outlier_fraction = q.outlier_fraction();
  p.histogram = huffman::symbol_histogram(q.codes, p.alphabet_size);
  p.code_lengths = huffman::huffman_code_lengths(p.histogram);

  const double n = static_cast<double>(p.num_symbols);
  double entropy = 0.0;
  double code_bits = 0.0;
  for (std::size_t s = 0; s < p.histogram.size(); ++s) {
    if (p.histogram[s] == 0) continue;
    const double f = static_cast<double>(p.histogram[s]) / n;
    entropy -= f * std::log2(f);
    code_bits += static_cast<double>(p.histogram[s] * p.code_lengths[s]);
  }
  p.entropy_bits = entropy;
  p.avg_code_bits = code_bits / n;

  std::uint64_t runs = 1;
  for (std::size_t i = 1; i < q.codes.size(); ++i) {
    if (q.codes[i] != q.codes[i - 1]) ++runs;
  }
  p.mean_run_length = n / static_cast<double>(runs);
  return p;
}

std::span<const core::Method> MethodSelector::candidates() const {
  static constexpr core::Method kCandidates[] = {
      core::Method::GapArrayOptimized,
      core::Method::SelfSyncOptimized,
      core::Method::CuszNaive,
  };
  return kCandidates;
}

MethodEstimate MethodSelector::estimate(core::Method method,
                                        const ChunkProbe& probe) const {
  if (probe.num_symbols == 0) {
    throw std::invalid_argument("cannot estimate an empty chunk");
  }
  // Guards the calibration-slot indexing below against a future enumerator
  // added to core::Method without a matching kMethodSlots bump.
  const auto slot = static_cast<std::size_t>(method);
  if (slot >= kMethodSlots) {
    throw std::invalid_argument("method out of calibration range");
  }
  const core::CostModel& c = decoder_.cost;
  const double n = static_cast<double>(probe.num_symbols);
  const double b = std::max(1.0, probe.avg_code_bits);
  const double total_bits = n * b;
  const bool lut = decoder_.use_lut_decode;
  const bool multisym = lut && decoder_.use_multisym_lut;
  // Average ladder overspill past the flat LUT's index width; zero for the
  // common case of codes shorter than the table.
  const double ladder_bits =
      std::max(0.0, b - huffman::DecodeTable::kDefaultIndexBits);

  const std::uint64_t subseq_bits =
      static_cast<std::uint64_t>(decoder_.units_per_subseq) * 32;
  const std::uint64_t seq_bits = subseq_bits * decoder_.threads_per_block;

  MethodEstimate e;
  e.method = method;
  double threads = 1.0;
  double thread_cycles = 0.0;
  switch (method) {
    case core::Method::CuszNaive: {
      // One thread decodes one coarse chunk end to end: the per-probe cost is
      // the serialized-gather LUT rate (or the dependent tree walk), and the
      // kernel is critical-path bound whenever few chunks exist.
      const std::uint64_t coarse =
          div_ceil(probe.num_symbols, decoder_.chunk_symbols);
      const double per_symbol =
          naive_symbol_cycles(c, lut, multisym, b, ladder_bits);
      threads = static_cast<double>(coarse);
      thread_cycles =
          std::min<double>(n, decoder_.chunk_symbols) * per_symbol;
      const double padded_bits =
          total_bits + static_cast<double>(coarse) * kNaiveChunkPadBits;
      e.stored_bytes = div_ceil(static_cast<std::uint64_t>(padded_bits), 32) * 4 +
                       coarse * 8;  // unit-padded stream + chunk offsets
      break;
    }
    case core::Method::SelfSyncOriginal:
    case core::Method::SelfSyncOptimized: {
      const std::uint64_t subseqs =
          std::max<std::uint64_t>(1, div_ceil(static_cast<std::uint64_t>(total_bits),
                                              subseq_bits));
      double per_symbol = fine_symbol_cycles(c, lut, multisym, b, ladder_bits);
      const double sym_per_subseq = n / static_cast<double>(subseqs);
      const double passes =
          kGapDecodePasses +
          kSelfSyncSpeculativePasses /
              std::sqrt(std::max(1.0, probe.mean_run_length));
      if (method == core::Method::SelfSyncOriginal && multisym) {
        // The Original's decode+write pass keeps the single-symbol probe
        // (its per-codeword global-memory table fetches gain nothing from
        // the wider MultiEntry); only the sync passes batch.
        per_symbol =
            (per_symbol * (passes - 1.0) +
             fine_symbol_cycles(c, lut, /*multisym=*/false, b, ladder_bits)) /
            passes;
      }
      threads = static_cast<double>(subseqs);
      thread_cycles = sym_per_subseq * per_symbol * passes +
                      kSelfSyncVoteIters *
                          (method == core::Method::SelfSyncOptimized
                               ? c.all_sync_cycles
                               : c.sync_check_cycles * decoder_.threads_per_block);
      e.stored_bytes =
          div_ceil(static_cast<std::uint64_t>(total_bits), seq_bits) * seq_bits / 8;
      break;
    }
    case core::Method::GapArrayOriginal8Bit:
    case core::Method::GapArrayOptimized: {
      const std::uint64_t subseqs =
          std::max<std::uint64_t>(1, div_ceil(static_cast<std::uint64_t>(total_bits),
                                              subseq_bits));
      double per_symbol = fine_symbol_cycles(c, lut, multisym, b, ladder_bits);
      if (method == core::Method::GapArrayOriginal8Bit && multisym) {
        // As above: of the Original's two passes (count, decode+write), only
        // the count pass takes the multi-symbol batch.
        per_symbol =
            (per_symbol * (kGapDecodePasses - 1.0) +
             fine_symbol_cycles(c, lut, /*multisym=*/false, b, ladder_bits)) /
            kGapDecodePasses;
      }
      threads = static_cast<double>(subseqs);
      thread_cycles =
          n / static_cast<double>(subseqs) * per_symbol * kGapDecodePasses;
      e.stored_bytes =
          div_ceil(static_cast<std::uint64_t>(total_bits), seq_bits) * seq_bits / 8 +
          subseqs;  // sequence-padded stream + one gap byte per subsequence
      break;
    }
  }

  // Outlier scatter is method-independent but kept in the absolute numbers
  // so estimates stay comparable to simulated chunk costs.
  const double outlier_cycles =
      probe.outlier_fraction * n * kOutlierScatterCycles;

  const double warps = std::ceil(threads / spec_.warp_size);
  const double issue_rate =
      static_cast<double>(spec_.num_sms) * spec_.warp_schedulers_per_sm *
      spec_.clock_hz();
  const double throughput_s = (warps * thread_cycles + outlier_cycles) / issue_rate;
  const double critical_s = thread_cycles / spec_.clock_hz();
  // Fitted correction (identity unless calibrate() was called).
  e.decode_seconds =
      scale_[slot] *
          (std::max(throughput_s, critical_s) + spec_.launch_overhead_s) +
      offset_s_[slot];

  const std::uint64_t shipped =
      e.stored_bytes +
      static_cast<std::uint64_t>(probe.outlier_fraction * n) *
          sz::kOutlierEntryBytes +
      sz::kBlobHeaderBytes;
  e.transfer_seconds =
      static_cast<double>(shipped) / (spec_.pcie_bw_gbps * 1e9);
  return e;
}

std::vector<MethodEstimate> MethodSelector::rank(const ChunkProbe& probe) const {
  std::vector<MethodEstimate> out;
  for (core::Method m : candidates()) out.push_back(estimate(m, probe));
  const auto cost = [this](const MethodEstimate& e) {
    return objective_ == SelectionObjective::DecodeOnly ? e.decode_seconds
                                                        : e.total_seconds();
  };
  // Stable sort keeps the candidate order on exact ties, so the ranking is a
  // pure function of the probe.
  std::stable_sort(out.begin(), out.end(),
                   [&cost](const MethodEstimate& a, const MethodEstimate& b) {
                     return cost(a) < cost(b);
                   });
  return out;
}

core::Method MethodSelector::select(const ChunkProbe& probe) const {
  return rank(probe).front().method;
}

void MethodSelector::calibrate(std::span<const MethodCalibration> calibration) {
  for (const MethodCalibration& mc : calibration) {
    const auto slot = static_cast<std::size_t>(mc.method);
    if (slot >= kMethodSlots) {
      throw std::invalid_argument("calibration names an unknown method");
    }
    if (!(mc.scale > 0.0) || !std::isfinite(mc.scale) ||
        !std::isfinite(mc.offset_s)) {
      throw std::invalid_argument(
          "calibration scale must be positive and finite");
    }
    scale_[slot] = mc.scale;
    offset_s_[slot] = mc.offset_s;
  }
}

std::span<const MethodCalibration> default_calibration() {
  return kDefaultCalibration;
}

FieldPlan plan_from_probes(std::vector<ChunkProbe> probes,
                           core::Method default_method,
                           const PlanOptions& options,
                           const MethodSelector& selector) {
  if (probes.empty()) {
    throw std::invalid_argument("cannot plan a field with no chunks");
  }
  // Calibrated pricing is applied to a local copy so the caller's selector
  // stays untouched (it may be shared across fields and callers).
  MethodSelector sel = selector;
  sel.calibrate(default_calibration());

  const std::size_t num_chunks = probes.size();
  FieldPlan plan;
  plan.chunks.resize(num_chunks);
  for (std::size_t i = 0; i < num_chunks; ++i) {
    plan.chunks[i].method =
        options.auto_method ? sel.select(probes[i]) : default_method;
  }
  // Probes are no longer needed as histograms after the shared decision, so
  // each chunk keeps its canonical lengths for the private-book encode.
  const auto keep_lengths = [&] {
    for (std::size_t i = 0; i < num_chunks; ++i) {
      plan.chunks[i].private_code_lengths = std::move(probes[i].code_lengths);
    }
  };

  // A shared book only ever pays off when several chunks can amortize it.
  if (!options.shared_codebook || num_chunks < 2) {
    keep_lengths();
    return plan;
  }

  std::vector<std::uint64_t> pooled(probes[0].histogram.size(), 0);
  for (const ChunkProbe& p : probes) {
    if (p.histogram.size() != pooled.size()) {
      throw std::invalid_argument(
          "chunks of one field disagree on alphabet size");
    }
    for (std::size_t s = 0; s < pooled.size(); ++s) pooled[s] += p.histogram[s];
  }
  const std::vector<std::uint8_t> shared_lengths =
      huffman::huffman_code_lengths(pooled);

  // Ratio-driven reference choice, priced in STORED frame bytes: a private
  // book costs its serialized bytes (u32 alphabet + one length byte per
  // symbol) inside every frame; the shared book costs each chunk only the
  // extra payload bits of coding against the pooled distribution. The
  // 8-byte codebook-section length prefix is written either way (length 0
  // for shared frames), so it cancels out of the comparison.
  bool any_shared = false;
  for (std::size_t i = 0; i < num_chunks; ++i) {
    const ChunkProbe& p = probes[i];
    ChunkPlan& cp = plan.chunks[i];
    // The 8-bit baseline trims codes to a private alphabet, so it can never
    // encode against the field's book (encode_with_codebook rejects it).
    if (cp.method == core::Method::GapArrayOriginal8Bit) continue;
    std::uint64_t private_bits = 0;
    std::uint64_t shared_bits = 0;
    for (std::size_t s = 0; s < p.histogram.size(); ++s) {
      private_bits += p.histogram[s] * p.code_lengths[s];
      shared_bits += p.histogram[s] * shared_lengths[s];
    }
    const std::uint64_t private_book_bytes = p.alphabet_size + 4;
    cp.est_private_bytes = div_ceil(private_bits, 8) + private_book_bytes;
    cp.est_shared_bytes = div_ceil(shared_bits, 8);
    cp.use_shared_codebook = cp.est_shared_bytes < cp.est_private_bytes;
    any_shared = any_shared || cp.use_shared_codebook;
  }
  if (any_shared) {
    plan.has_shared_codebook = true;
    plan.shared_codebook = huffman::Codebook::from_lengths(shared_lengths);
  }
  keep_lengths();
  return plan;
}

std::vector<std::uint8_t> encode_planned_chunk(sz::QuantizedField&& q,
                                               const ChunkPlan& plan,
                                               const sz::CompressorConfig& config,
                                               const huffman::Codebook* shared) {
  if (plan.use_shared_codebook) {
    if (shared == nullptr) {
      throw std::invalid_argument(
          "chunk plan references a shared codebook but none was provided");
    }
    return sz::serialize_blob(
        sz::encode_quantized(std::move(q), plan.method, config, *shared),
        /*embed_codebook=*/false);
  }
  // Private book: reuse the plan's canonical lengths (identical to what a
  // fresh histogram would yield, since both are deterministic) instead of
  // recomputing them; 8-bit streams re-trim, so they take the generic path.
  if (!plan.private_code_lengths.empty() &&
      plan.method != core::Method::GapArrayOriginal8Bit) {
    const huffman::Codebook book =
        huffman::Codebook::from_lengths(plan.private_code_lengths);
    return sz::serialize_blob(
        sz::encode_quantized(std::move(q), plan.method, config, book));
  }
  return sz::serialize_blob(
      sz::encode_quantized(std::move(q), plan.method, config));
}

}  // namespace ohd::pipeline
