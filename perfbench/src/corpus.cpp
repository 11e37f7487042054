#include "corpus.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "obs/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace ohd;

std::uint64_t Corpus::bytes() const { return elems() * sizeof(float); }

std::uint64_t Corpus::elems() const {
  std::uint64_t n = 0;
  for (const data::Field& f : fields) n += f.data.size();
  return n;
}

Corpus make_corpus() { return Corpus{data::evaluation_suite(kCorpusScale)}; }

sz::CompressorConfig compressor_config() { return sz::CompressorConfig{}; }

std::vector<pipeline::FieldSpec> field_specs(const data::Field& field,
                                             std::size_t chunk_elems) {
  return {pipeline::FieldSpec{
      field.name, std::span<const float>(field.data), field.dims,
      compressor_config(), chunk_elems, {}}};
}

std::vector<pipeline::FieldSpec> field_specs(const Corpus& corpus,
                                             std::size_t chunk_elems) {
  std::vector<pipeline::FieldSpec> specs;
  for (const data::Field& f : corpus.fields) {
    specs.push_back(field_specs(f, chunk_elems).front());
  }
  return specs;
}

std::vector<std::uint8_t> compress_archive(
    const pipeline::BatchScheduler& sched,
    std::span<const pipeline::FieldSpec> specs) {
  pipeline::MemorySink sink;
  pipeline::ArchiveWriter writer(sink);
  sched.compress_to(writer, specs);
  writer.finish();
  return sink.take();
}

RoundTrip round_trip(const pipeline::BatchScheduler& sched,
                     std::span<const pipeline::FieldSpec> specs) {
  RoundTrip rt;
  const std::uint64_t t0 = obs::now_ns();
  rt.archive = compress_archive(sched, specs);
  const std::uint64_t t1 = obs::now_ns();
  const pipeline::MemorySource source(rt.archive);
  const pipeline::ArchiveReader reader(source);
  rt.decoded = sched.decompress(reader);
  const std::uint64_t t2 = obs::now_ns();
  rt.compress_s = seconds_between(t0, t1);
  rt.decompress_s = seconds_between(t1, t2);
  rt.peak_frame_bytes = reader.peak_frame_bytes();
  return rt;
}

bool same_decode(const pipeline::BatchDecompressResult& a,
                 const pipeline::BatchDecompressResult& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (std::size_t f = 0; f < b.fields.size(); ++f) {
    if (!same_floats(a.fields[f].decode.data, b.fields[f].decode.data)) {
      return false;
    }
  }
  return true;
}

bool same_output(const RoundTrip& a, const RoundTrip& b) {
  return a.archive == b.archive && same_decode(a.decoded, b.decoded);
}

std::vector<FieldLayout> archive_layout(const pipeline::ArchiveReader& r) {
  std::vector<FieldLayout> out;
  for (const pipeline::FieldEntry& f : r.fields()) {
    FieldLayout l;
    l.elems = f.dims.count();
    for (const pipeline::ChunkRecord& c : f.chunks) {
      l.chunk_offsets.push_back(c.elem_offset);
    }
    out.push_back(std::move(l));
  }
  return out;
}

service::ServiceConfig service_config() {
  service::ServiceConfig cfg;
  cfg.workers = kWorkers;
  cfg.dispatchers = kDispatchers;
  cfg.max_queue_depth = kMaxQueueDepth;
  cfg.max_inflight_per_client = kMaxInflightPerClient;
  return cfg;
}

namespace {

/// Largest |a - b| over two equal-length spans (inf on a length mismatch).
double max_abs_diff(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

}  // namespace

bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double abs_error_bound) {
  return max_abs_diff(original, decoded) <= abs_error_bound * (1 + 1e-6);
}

bool same_floats(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

}  // namespace perfbench
