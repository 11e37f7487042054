// Microbenchmarks of the substrate hot paths: these measure HOST wall time
// of the functional simulation (useful for keeping the simulator itself
// fast), not simulated GPU time.
//
// Three modes:
//  * default — google-benchmark microbenchmarks (when built with gbench);
//  * --json [path] — the perf-trajectory probe: times flat-LUT, multi-symbol
//    LUT, and fused decode→dequantize→reconstruct decoding against the
//    legacy bit-by-bit path on a quant-like symbol stream, plus the
//    simulator's overhead (core::decode against the plain host decode of
//    the same stream), and writes machine-readable results (symbols/sec,
//    speedups) to BENCH_decode.json. Needs no benchmark library, so CI can
//    always run it.
//  * --calibrate [path] — the MethodSelector calibration probe: sweeps
//    synthetic chunks across the compressibility range, records each
//    candidate method's ANALYTIC decode estimate next to its MEASURED
//    simulated decode cost, and writes the rows to BENCH_calibration.json
//    for scripts/calibrate_selector.py to regression-fit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitio/bit_reader.hpp"
#include "bitio/bit_writer.hpp"
#include "core/decode_write.hpp"
#include "core/huffman_codec.hpp"
#include "cudasim/algorithms.hpp"
#include "huffman/codebook.hpp"
#include "huffman/decode_step.hpp"
#include "huffman/decode_table.hpp"
#include "huffman/encoder.hpp"
#include "pipeline/method_selector.hpp"
#include "sz/compressor.hpp"
#include "util/rng.hpp"

#if defined(OHD_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace ohd;

/// Quant-like stream: values concentrate geometrically near zero, like
/// Lorenzo quantization codes near the radius. `continue_p` sets the skew
/// (0.7 gives avg code length ~3 bits, the BENCH_decode corpus).
std::vector<std::uint16_t> skewed_stream(std::size_t n, double continue_p = 0.7,
                                         std::uint64_t seed = 5) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint16_t> out(n);
  for (auto& s : out) {
    std::uint32_t v = 0;
    while (v + 1 < 1024 && rng.uniform() < continue_p) ++v;
    s = static_cast<std::uint16_t>(v);
  }
  return out;
}

/// Shared decode loop so the single-symbol timed arms differ only in the
/// per-symbol decode step.
template <typename DecodeStep>
std::vector<std::uint16_t> decode_all(const huffman::StreamEncoding& enc,
                                      DecodeStep&& step) {
  std::vector<std::uint16_t> out(enc.num_symbols);
  bitio::BitReader reader(enc.units, enc.total_bits);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const huffman::DecodedSymbol d = step(reader);
    if (!d.valid) throw std::runtime_error("decode desynced");
    out[i] = d.symbol;
  }
  return out;
}

std::vector<std::uint16_t> decode_all_bit_by_bit(
    const huffman::StreamEncoding& enc, const huffman::Codebook& cb) {
  return decode_all(enc, [&](bitio::BitReader& reader) {
    return huffman::decode_one(reader, cb);
  });
}

std::vector<std::uint16_t> decode_all_lut(const huffman::StreamEncoding& enc,
                                          const huffman::Codebook& cb) {
  const huffman::DecodeTable& table = cb.decode_table();
  return decode_all(enc, [&](bitio::BitReader& reader) {
    return huffman::decode_one_lut(reader, cb, table);
  });
}

/// Multi-symbol LUT decode: one probe retires up to kMaxMultiSymbols
/// codewords. The batch's symbol slots are stored unconditionally (safe:
/// the loop guard guarantees room for a full batch) and the cursor advances
/// by the retired count, so the hot loop carries no per-symbol branch.
std::vector<std::uint16_t> decode_all_multi(const huffman::StreamEncoding& enc,
                                            const huffman::Codebook& cb) {
  const huffman::DecodeTable& table = cb.decode_table();
  std::vector<std::uint16_t> out(enc.num_symbols);
  bitio::BitReader reader(enc.units, enc.total_bits);
  const std::size_t n = out.size();
  std::size_t i = 0;
  while (i + huffman::DecodeTable::kMaxMultiSymbols <= n) {
    const huffman::DecodedBatch b = huffman::decode_multi(reader, cb, table);
    if (b.count == 0) throw std::runtime_error("decode desynced");
    out[i] = b.symbols[0];
    out[i + 1] = b.symbols[1];
    out[i + 2] = b.symbols[2];
    i += b.count;
  }
  for (; i < n; ++i) {
    const huffman::DecodedSymbol d = huffman::decode_one_lut(reader, cb, table);
    if (!d.valid) throw std::runtime_error("decode desynced");
    out[i] = d.symbol;
  }
  return out;
}

/// Best-of-`reps` wall seconds of `fn()` (which must return a value equal to
/// `expect`).
template <typename Fn, typename Expect>
double best_seconds(int reps, const Expect& expect, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto got = fn();
    const auto t1 = std::chrono::steady_clock::now();
    if (got != expect) throw std::runtime_error("decode mismatch");
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

int run_json_mode(const char* out_path) {
  constexpr std::size_t kNumSymbols = 1 << 21;  // ~2M, quant-like
  constexpr int kReps = 7;
  const auto data = skewed_stream(kNumSymbols);
  const auto cb = huffman::Codebook::from_data(data, 1024);
  const auto enc = huffman::encode_plain(data, cb);

  // Warm-up (touches the stream + tables once) and correctness cross-check.
  if (decode_all_lut(enc, cb) != decode_all_bit_by_bit(enc, cb) ||
      decode_all_multi(enc, cb) != data) {
    std::fprintf(stderr, "LUT / multi / bit-by-bit decode mismatch\n");
    return 1;
  }

  const double legacy_s = best_seconds(kReps, data, [&] {
    return decode_all_bit_by_bit(enc, cb);
  });
  const double lut_s = best_seconds(kReps, data, [&] {
    return decode_all_lut(enc, cb);
  });
  const double multi_s = best_seconds(kReps, data, [&] {
    return decode_all_multi(enc, cb);
  });

  // Fused decode→dequantize→reconstruct on a 1-D quant-like float field:
  // the staged arm decodes to a quant-code vector and then reconstructs
  // (the pre-fusion pipeline), the fused arm streams codes straight into
  // the float buffer.
  std::vector<float> field(kNumSymbols);
  {
    util::Xoshiro256 rng(11);
    float v = 0.0f;
    for (auto& x : field) {
      // Smooth random walk; quantizes to skewed codes like the corpus.
      v += static_cast<float>(rng.uniform() - 0.5) * 0.01f;
      x = v;
    }
  }
  sz::CompressorConfig cfg;
  cfg.method = core::Method::SelfSyncOptimized;  // plain stream payload
  const sz::CompressedBlob blob =
      sz::compress(field, sz::Dims::d1(kNumSymbols), cfg);
  std::vector<float> fused_out(kNumSymbols);
  sz::host_decompress_into(blob, fused_out);
  const auto& blob_stream =
      std::get<huffman::StreamEncoding>(blob.encoded.payload);
  const std::vector<float> staged_expect = sz::lorenzo_reconstruct(
      decode_all_multi(blob_stream, blob.encoded.codebook), blob.outliers,
      blob.dims, blob.abs_error_bound, blob.radius);
  if (fused_out != staged_expect) {
    std::fprintf(stderr, "fused / staged reconstruct mismatch\n");
    return 1;
  }
  const double staged_recon_s = best_seconds(kReps, staged_expect, [&] {
    return sz::lorenzo_reconstruct(
        decode_all_multi(blob_stream, blob.encoded.codebook), blob.outliers,
        blob.dims, blob.abs_error_bound, blob.radius);
  });
  const double fused_recon_s = best_seconds(kReps, staged_expect, [&] {
    std::vector<float> out(kNumSymbols);
    sz::host_decompress_into(blob, out);
    return out;
  });

  // Simulator overhead: the simulated decode (every lane run and every
  // global access recorded) against the plain host decode of the same
  // gap-array stream. Host-speed work on the recorder raises this ratio.
  // The two arms alternate so machine-speed drift hits both alike.
  const core::EncodedStream gap_enc = core::encode_for_method(
      core::Method::GapArrayOptimized, data, 1024);
  double host_decode_s = 1e300;
  double sim_decode_s = 1e300;
  for (int r = 0; r < kReps; ++r) {
    host_decode_s = std::min(host_decode_s, best_seconds(1, data, [&] {
      std::vector<std::uint16_t> out;
      out.reserve(kNumSymbols);
      core::host_decode_symbols(gap_enc,
                                [&](std::uint16_t s) { out.push_back(s); });
      return out;
    }));
    sim_decode_s = std::min(sim_decode_s, best_seconds(1, data, [&] {
      cudasim::SimContext ctx;
      return core::decode(ctx, gap_enc).symbols;
    }));
  }

  const double legacy_sps = static_cast<double>(kNumSymbols) / legacy_s;
  const double lut_sps = static_cast<double>(kNumSymbols) / lut_s;
  const double multi_sps = static_cast<double>(kNumSymbols) / multi_s;
  const double speedup = legacy_s / lut_s;

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"huffman_decode\",\n"
               "  \"num_symbols\": %zu,\n"
               "  \"alphabet\": 1024,\n"
               "  \"lut_index_bits\": %u,\n"
               "  \"bit_by_bit_symbols_per_sec\": %.0f,\n"
               "  \"lut_symbols_per_sec\": %.0f,\n"
               "  \"lut_speedup\": %.3f,\n"
               "  \"multisym_symbols_per_sec\": %.0f,\n"
               "  \"multisym_speedup\": %.3f,\n"
               "  \"multisym_vs_lut_speedup\": %.3f,\n"
               "  \"fused_floats_per_sec\": %.0f,\n"
               "  \"staged_floats_per_sec\": %.0f,\n"
               "  \"fused_vs_staged_speedup\": %.3f,\n"
               "  \"host_vs_sim_decode_ratio\": %.4f\n"
               "}\n",
               kNumSymbols, cb.decode_table().index_bits(), legacy_sps,
               lut_sps, speedup, multi_sps, legacy_s / multi_s,
               lut_s / multi_s,
               static_cast<double>(kNumSymbols) / fused_recon_s,
               static_cast<double>(kNumSymbols) / staged_recon_s,
               staged_recon_s / fused_recon_s, host_decode_s / sim_decode_s);
  std::fclose(f);
  std::printf(
      "wrote %s: bit-by-bit %.1f, LUT %.1f, multi %.1f Msym/s "
      "(LUT %.2fx, multi %.2fx over LUT), fused write %.2fx over staged, "
      "host/sim decode %.4f\n",
      out_path, legacy_sps / 1e6, lut_sps / 1e6, multi_sps / 1e6, speedup,
      lut_s / multi_s, staged_recon_s / fused_recon_s,
      host_decode_s / sim_decode_s);
  return 0;
}

int run_calibrate_mode(const char* out_path) {
  // Chunks spanning the compressibility range the pipeline sees: geometric
  // skews from near-incompressible to heavily peaked, at three chunk sizes.
  const double skews[] = {0.35, 0.5, 0.7, 0.85, 0.93};
  const std::size_t sizes[] = {1u << 14, 1u << 16, 1u << 18};
  const sz::CompressorConfig cfg;
  const pipeline::MethodSelector selector(cfg.decoder);

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"selector_calibration\",\n"
               "  \"rows\": [\n");
  bool first = true;
  std::uint64_t seed = 100;
  for (const std::size_t n : sizes) {
    for (const double p : skews) {
      std::vector<std::uint16_t> codes = skewed_stream(n, p, seed++);
      // Code 0 is the outlier marker; shift into the regular range (clamped
      // to the 2*radius-1 top code) so the chunk has no outlier records to
      // fabricate.
      for (auto& c : codes) {
        c = static_cast<std::uint16_t>(std::min<std::uint32_t>(c + 1u, 1023u));
      }
      sz::QuantizedField q;
      q.dims = sz::Dims::d1(n);
      q.error_bound = 1e-3;
      q.radius = cfg.radius;
      q.codes = std::move(codes);
      const pipeline::ChunkProbe probe = pipeline::probe_chunk(q);
      for (const core::Method method : selector.candidates()) {
        const core::EncodedStream enc = core::encode_for_method(
            method, q.codes, q.alphabet_size(), cfg.decoder);
        cudasim::SimContext ctx;
        const core::DecodeResult dec = core::decode(ctx, enc, cfg.decoder);
        if (dec.symbols != q.codes) {
          std::fprintf(stderr, "calibration decode mismatch\n");
          std::fclose(f);
          return 1;
        }
        const pipeline::MethodEstimate est = selector.estimate(method, probe);
        std::fprintf(f,
                     "%s    {\"method_id\": %d, \"method\": \"%s\", "
                     "\"num_symbols\": %zu, \"avg_code_bits\": %.4f, "
                     "\"estimated_s\": %.9e, \"simulated_s\": %.9e}",
                     first ? "" : ",\n", static_cast<int>(method),
                     core::method_name(method).c_str(), n,
                     probe.avg_code_bits, est.decode_seconds,
                     dec.phases.total());
        first = false;
      }
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}

#if defined(OHD_HAVE_GBENCH)

void BM_CodebookConstruction(benchmark::State& state) {
  const auto data = skewed_stream(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman::Codebook::from_data(data, 1024));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodebookConstruction)->Arg(1 << 14)->Arg(1 << 17);

void BM_HuffmanEncode(benchmark::State& state) {
  const auto data = skewed_stream(static_cast<std::size_t>(state.range(0)));
  const auto cb = huffman::Codebook::from_data(data, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(huffman::encode_plain(data, cb));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HuffmanEncode)->Arg(1 << 14)->Arg(1 << 17);

void BM_DecodeBitByBit(benchmark::State& state) {
  const auto data = skewed_stream(static_cast<std::size_t>(state.range(0)));
  const auto cb = huffman::Codebook::from_data(data, 1024);
  const auto enc = huffman::encode_plain(data, cb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_all_bit_by_bit(enc, cb));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeBitByBit)->Arg(1 << 14)->Arg(1 << 17);

void BM_DecodeLut(benchmark::State& state) {
  const auto data = skewed_stream(static_cast<std::size_t>(state.range(0)));
  const auto cb = huffman::Codebook::from_data(data, 1024);
  const auto enc = huffman::encode_plain(data, cb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_all_lut(enc, cb));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeLut)->Arg(1 << 14)->Arg(1 << 17);

void BM_DecodeMultiSym(benchmark::State& state) {
  const auto data = skewed_stream(static_cast<std::size_t>(state.range(0)));
  const auto cb = huffman::Codebook::from_data(data, 1024);
  const auto enc = huffman::encode_plain(data, cb);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_all_multi(enc, cb));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeMultiSym)->Arg(1 << 14)->Arg(1 << 17);

void BM_BitWriterThroughput(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tokens(1 << 16);
  for (auto& [v, l] : tokens) {
    l = static_cast<std::uint32_t>(1 + rng.bounded(24));
    v = static_cast<std::uint32_t>(rng.bounded(1u << l));
  }
  for (auto _ : state) {
    bitio::BitWriter w;
    for (const auto& [v, l] : tokens) w.put(v, l);
    benchmark::DoNotOptimize(w.finish());
  }
  state.SetItemsProcessed(state.iterations() * tokens.size());
}
BENCHMARK(BM_BitWriterThroughput);

void BM_DevicePrefixSum(benchmark::State& state) {
  std::vector<std::uint32_t> counts(
      static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    cudasim::SimContext ctx;
    benchmark::DoNotOptimize(
        cudasim::device_exclusive_prefix_sum(ctx, counts));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DevicePrefixSum)->Arg(1 << 16);

void BM_DeviceRadixSort(benchmark::State& state) {
  util::Xoshiro256 rng(9);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(state.range(0)));
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.bounded(10));
  std::vector<std::uint32_t> values(keys.size());
  for (auto _ : state) {
    auto k = keys;
    auto v = values;
    cudasim::SimContext ctx;
    cudasim::device_radix_sort_pairs(ctx, k, v, 8);
    benchmark::DoNotOptimize(k);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeviceRadixSort)->Arg(1 << 14);

#endif  // OHD_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* path = i + 1 < argc && argv[i + 1][0] != '-'
                             ? argv[i + 1]
                             : "BENCH_decode.json";
      return run_json_mode(path);
    }
    if (std::strcmp(argv[i], "--calibrate") == 0) {
      const char* path = i + 1 < argc && argv[i + 1][0] != '-'
                             ? argv[i + 1]
                             : "BENCH_calibration.json";
      return run_calibrate_mode(path);
    }
  }
#if defined(OHD_HAVE_GBENCH)
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "built without google-benchmark; only --json [path] and "
               "--calibrate [path] modes are available\n");
  return 1;
#endif
}
