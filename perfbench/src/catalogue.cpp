#include "catalogue.hpp"

#include <array>

namespace perfbench {

namespace {

constexpr std::array kEndToEnd = {
    MetricSpec{"setup_s", "s"},
    MetricSpec{"peak_rss_mb", "MiB"},
    MetricSpec{"success_fraction", "ratio"},
    MetricSpec{"compress_gbps", "GB/s"},
    MetricSpec{"decompress_gbps", "GB/s"},
    MetricSpec{"compression_ratio", "ratio"},
    MetricSpec{"sim_huffman_gbps", "model-GB/s"},
    MetricSpec{"sim_decompress_gbps", "model-GB/s"},
    MetricSpec{"latency_p50_ms", "ms"},
    MetricSpec{"latency_p99_ms", "ms"},
};

constexpr std::array kPerLayer = {
    MetricSpec{"huffman.decode_ns_per_symbol", "ns"},
    MetricSpec{"huffman.encode_ns_per_symbol", "ns"},
    MetricSpec{"cudasim.self_ms_per_op", "ms"},
    MetricSpec{"cudasim.launches_per_op", "count"},
    MetricSpec{"core.sim_decode_write_s", "model-s"},
    MetricSpec{"core.sim_tune_s", "model-s"},
    MetricSpec{"core.sim_output_index_s", "model-s"},
    MetricSpec{"core.sim_other_s", "model-s"},
    MetricSpec{"sz.quantize_ms_per_op", "ms"},
    MetricSpec{"sz.reconstruct_ms_per_op", "ms"},
    MetricSpec{"sz.sim_reconstruct_s", "model-s"},
    MetricSpec{"pipeline.fetch_ms_per_op", "ms"},
    MetricSpec{"pipeline.verify_ms_per_op", "ms"},
    MetricSpec{"pipeline.chunk_self_ms_per_op", "ms"},
    MetricSpec{"pipeline.write_self_ms_per_op", "ms"},
    MetricSpec{"pipeline.fanout_efficiency", "ratio"},
    MetricSpec{"pipeline.frames_per_op", "count"},
    MetricSpec{"pipeline.frame_bytes_per_op", "bytes"},
    MetricSpec{"pipeline.peak_frame_bytes", "bytes"},
    MetricSpec{"service.marginal_p50_ms", "ms"},
    MetricSpec{"service.marginal_p99_ms", "ms"},
    MetricSpec{"service.queue_wait_p50_ms", "ms"},
    MetricSpec{"service.queue_wait_p99_ms", "ms"},
    MetricSpec{"service.completed", "count"},
    MetricSpec{"service.rejected", "count"},
    MetricSpec{"net.marginal_p50_ms", "ms"},
    MetricSpec{"net.marginal_p99_ms", "ms"},
    MetricSpec{"net.tcp_over_unix_p50_ms", "ms"},
    MetricSpec{"net.bytes_in_per_request", "bytes"},
    MetricSpec{"net.bytes_out_per_request", "bytes"},
    MetricSpec{"net.frames_per_request", "count"},
    MetricSpec{"net.error_frames", "count"},
    MetricSpec{"net.decode_rejects", "count"},
    MetricSpec{"util.crc32_bytes_per_op", "bytes"},
    MetricSpec{"util.crc32_ms_per_op", "ms"},
    MetricSpec{"obs.tracing_overhead_fraction", "ratio"},
    MetricSpec{"loadgen.lag_p99_ms", "ms"},
    MetricSpec{"loadgen.lag_max_ms", "ms"},
};

constexpr std::array<std::string_view, 2> kWorkloads = {"bulk_roundtrip",
                                                        "remote_reads"};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }
std::span<const std::string_view> workload_names() { return kWorkloads; }

}  // namespace perfbench
