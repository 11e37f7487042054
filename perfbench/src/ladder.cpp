// Traced run: replays one workload's seeded inputs one call at a time on one
// thread down the layer ladder, with obs enabled, and derives each layer's
// self time as its rung minus the rung below on the same input:
//
//   decode:   core::host_decode_symbols -> core::decode -> sz::decompress_into
//             -> ArchiveReader::decode_chunk_into (read_frame_unverified,
//             read_frame) -> BatchScheduler -> CompressionService::submit_*
//             -> ServiceClient over Unix -> over TCP
//   compress: sz::quantize_with_abs_bound -> sz::encode_quantized
//             -> BatchScheduler::compress_to -> service -> wire
//
// Then a short traced replay of the workload's own load loop gives the
// loadgen lateness and the registry's queue-wait histograms. Bench-side spans
// go to the same obs::TraceRecorder as the library's own, nested with them
// per thread; every rung of replay op N runs inside a "replay_op N" span. The
// trace stays in memory and is written as Chrome JSON when the run ends.
#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include <unistd.h>

#include "core/decode_write.hpp"
#include "core/huffman_codec.hpp"
#include "cudasim/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "remote.hpp"
#include "stats.hpp"
#include "sz/serialize.hpp"
#include "util/checksum.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ohd;

namespace {

/// One ladder replay op per remote_reads request; bulk_roundtrip replays
/// its single op this many times.
constexpr std::size_t kReadOps = 200;
constexpr std::size_t kBulkOps = 3;
/// Length cap of the traced load replay.
constexpr double kLoadSeconds = 4.0;

/// Runs `fn` inside a bench span named `name` on the ladder's recorder
/// (parented to the innermost span open on this thread); returns its seconds.
template <typename Fn>
double timed(obs::TraceRecorder& rec, std::string_view name, Fn&& fn) {
  const std::uint64_t t0 = obs::now_ns();
  obs::TraceRecorder::ActiveSpan span = rec.begin_at(name, t0);
  fn();
  const std::uint64_t t1 = obs::now_ns();
  rec.end_at(std::move(span), t1);
  return seconds_between(t0, t1);
}

std::string op_span(std::size_t op) { return "replay_op " + std::to_string(op); }

/// Lower decode rungs, summed over every chunk of every replay op.
struct DecodeSums {
  double huffman_s = 0, core_s = 0, sz_s = 0, fetch_s = 0, read_s = 0,
         chunk_s = 0;
  std::uint64_t symbols = 0, launches = 0, frames = 0, frame_bytes = 0;
  core::PhaseTimings phases;
  double sim_reconstruct_s = 0;
  std::uint32_t digest = 0;  // keeps the host decode's output observable
};

/// Lower compress rungs, summed over every chunk of every replay op.
struct CompressSums {
  double quantize_s = 0, encode_s = 0, write1_s = 0;
  std::uint64_t symbols = 0, frame_bytes = 0;
};

void decode_rungs(const pipeline::ArchiveReader& reader, std::size_t f,
                  std::size_t c, obs::TraceRecorder& rec, DecodeSums& sums,
                  Report& report) {
  const pipeline::FieldEntry& field = reader.fields().at(f);
  const pipeline::ChunkRecord& chunk = field.chunks.at(c);
  std::vector<std::uint8_t> frame;
  sums.fetch_s += timed(rec, "pipeline.read_frame_unverified",
                        [&] { frame = reader.read_frame_unverified(f, c); });
  sums.read_s += timed(rec, "pipeline.read_frame",
                       [&] { frame = reader.read_frame(f, c); });
  const sz::CompressedBlob blob = sz::deserialize_blob(
      frame, chunk.codebook_ref == pipeline::CodebookRef::SharedField
                 ? field.shared_codebook.get()
                 : nullptr);
  std::uint32_t digest = 0;
  sums.huffman_s += timed(rec, "huffman.host_decode_symbols", [&] {
    core::host_decode_symbols(
        blob.encoded, [&](std::uint16_t s) { digest = digest * 31 + s; });
  });
  sums.digest ^= digest;
  sums.symbols += blob.encoded.num_symbols;
  {
    cudasim::SimContext ctx;
    core::DecodeResult d;
    sums.core_s += timed(rec, "core.decode",
                         [&] { d = core::decode(ctx, blob.encoded); });
    sums.phases += d.phases;
  }
  std::vector<float> staged(chunk.dims.count());
  {
    cudasim::SimContext ctx;
    sz::DecompressionResult r;
    sums.sz_s += timed(rec, "sz.decompress_into", [&] {
      r = sz::decompress_into(ctx, blob, staged);
    });
    sums.sim_reconstruct_s += r.reverse_lorenzo_seconds +
                              r.outlier_scatter_seconds;
    sums.launches += ctx.timeline().entries().size();
  }
  std::vector<float> fused(chunk.dims.count());
  {
    cudasim::SimContext ctx;
    sums.chunk_s += timed(rec, "pipeline.decode_chunk_into", [&] {
      reader.decode_chunk_into(ctx, f, c, fused);
    });
  }
  if (!same_floats(staged, fused)) {
    report.fail("ladder: sz::decompress_into and decode_chunk_into disagree");
  }
  sums.frames += 1;
  sums.frame_bytes += chunk.payload_bytes;
}

void compress_rungs(const data::Field& field, std::size_t chunk_elems,
                    obs::TraceRecorder& rec, CompressSums& sums) {
  const sz::CompressorConfig cfg = compressor_config();
  const double eb = sz::resolve_error_bound(field.data, cfg.rel_error_bound);
  for (const pipeline::ChunkExtent& ext :
       pipeline::chunk_layout(field.dims, chunk_elems)) {
    const auto data = std::span<const float>(field.data)
                          .subspan(ext.elem_offset, ext.dims.count());
    sz::QuantizedField q;
    sums.quantize_s += timed(rec, "sz.quantize_with_abs_bound", [&] {
      q = sz::quantize_with_abs_bound(data, ext.dims, eb, cfg);
    });
    sums.symbols += q.codes.size();
    sums.encode_s += timed(rec, "sz.encode_quantized", [&] {
      const sz::CompressedBlob blob =
          sz::encode_quantized(std::move(q), cfg.method, cfg);
      (void)blob;
    });
  }
}

/// Frame payload bytes of an archive (what the writer and reader CRC).
std::uint64_t archive_frame_bytes(const std::vector<std::uint8_t>& archive) {
  const pipeline::MemorySource source(archive);
  const pipeline::ArchiveReader reader(source);
  std::uint64_t n = 0;
  for (const pipeline::FieldEntry& f : reader.fields()) {
    for (const pipeline::ChunkRecord& c : f.chunks) n += c.payload_bytes;
  }
  return n;
}

/// The top rungs of one replay op, each returning its own seconds (inputs
/// such as compress jobs are built before the clock starts).
enum Rung { kPipe1, kPipe2, kService, kUnix, kTcp, kRungs };
constexpr std::array<const char*, kRungs> kRungNames = {
    "pipeline.batch_1_worker", "pipeline.batch_2_workers", "service.submit",
    "net.unix", "net.tcp"};
using RungFn = std::function<double(obs::TraceRecorder&)>;

struct Ladder {
  std::vector<std::array<RungFn, kRungs>> ops;
  /// Per op: whether its pipeline rungs fan out over BatchScheduler's pool.
  /// Every bulk_roundtrip op does; of remote_reads' requests only the ranges
  /// (decode_range), as a chunk read is one direct decode_chunk call.
  std::vector<bool> fans_out;
  /// Which rung is the workload's own entry point (obs overhead is measured
  /// on it): the pipeline for bulk_roundtrip, TCP for remote_reads.
  Rung entry = kTcp;
};

/// Everything the rungs of one workload share: pools, the traced stack and
/// its in-process + Unix + TCP sessions.
struct Stage {
  explicit Stage(std::size_t chunk_elems, const std::string& unix_path)
      : pool1(1),
        pool2(kWorkers),
        sched1(pool1),
        sched2(pool2),
        stack(chunk_elems, unix_path, 0),
        unix_client(stack.connect(net::Endpoint::Kind::Unix)),
        tcp_client(stack.connect(net::Endpoint::Kind::Tcp)) {
    service::ClientOptions opt;
    opt.rel_error_bound = compressor_config().rel_error_bound;
    opt.radius = compressor_config().radius;
    opt.chunk_elems = chunk_elems;
    client = stack.service().open_client(opt);
  }
  net::ServiceClient& wire(Rung r) {
    return r == kUnix ? *unix_client : *tcp_client;
  }

  pipeline::ThreadPool pool1;
  pipeline::ThreadPool pool2;
  pipeline::BatchScheduler sched1;
  pipeline::BatchScheduler sched2;
  RemoteStack stack;
  std::unique_ptr<net::ServiceClient> unix_client;
  std::unique_ptr<net::ServiceClient> tcp_client;
  service::ClientId client = 0;
};

struct LadderResult {
  std::array<std::vector<double>, kRungs> t;  // seconds per op
  std::vector<double> entry_off;              // entry rung, obs disabled
  std::uint64_t wire_bytes_in = 0, wire_bytes_out = 0, wire_frames_in = 0,
                wire_frames_out = 0;
};

/// One replay op's top rungs (wire stats taken around the TCP rung), then
/// its entry rung again with obs off.
void run_top_op(const std::array<RungFn, kRungs>& op, Rung entry, Stage& stage,
                obs::TraceRecorder& rec, LadderResult& res) {
  for (int r = 0; r < kRungs; ++r) {
    const net::ServerStats before = stage.stack.server().stats();
    res.t[r].push_back(op[r](rec));
    if (r == kTcp) {
      const net::ServerStats after = stage.stack.server().stats();
      res.wire_bytes_in += after.bytes_in - before.bytes_in;
      res.wire_bytes_out += after.bytes_out - before.bytes_out;
      res.wire_frames_in += after.frames_in - before.frames_in;
      res.wire_frames_out += after.frames_out - before.frames_out;
    }
  }
  obs::set_enabled(false);
  res.entry_off.push_back(op[entry](rec));
  obs::set_enabled(true);
}

LadderResult run_top_rungs(const Ladder& ladder, Stage& stage,
                           obs::TraceRecorder& rec) {
  LadderResult res;
  for (std::size_t i = 0; i < ladder.ops.size(); ++i) {
    timed(rec, op_span(i),
          [&] { run_top_op(ladder.ops[i], ladder.entry, stage, rec, res); });
  }
  return res;
}

/// Σ of the per-op seconds `v` over the ops flagged in `pick`.
double sum_where(const std::vector<double>& v, const std::vector<bool>& pick) {
  double s = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (pick.at(i)) s += v[i];
  }
  return s;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

std::vector<double> diff_ms(const std::vector<double>& a,
                            const std::vector<double>& b) {
  std::vector<double> out;
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back((a[i] - b[i]) * 1e3);
  return out;
}

double ms_per_op(double seconds, std::size_t ops) {
  return seconds * 1e3 / static_cast<double>(std::max<std::size_t>(ops, 1));
}

/// Times util::crc32 over `bytes` bytes (median of three passes).
double crc32_ms(std::uint64_t bytes) {
  std::vector<std::uint8_t> buf(std::max<std::uint64_t>(bytes, 1), 0x5a);
  std::vector<double> ms;
  std::uint32_t mix = 0;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t t0 = obs::now_ns();
    mix ^= util::crc32(buf);
    ms.push_back(static_cast<double>(obs::now_ns() - t0) * 1e-6);
  }
  volatile std::uint32_t keep = mix;
  (void)keep;
  return median(ms);
}

// ---- per-workload ladders --------------------------------------------------

struct WorkloadLadder {
  Ladder ladder;
  DecodeSums dec;
  std::size_t decode_ops = 0;
  CompressSums comp;
  std::size_t compress_ops = 0;
  std::uint64_t peak_frame_bytes = 0;
  /// Layers on the workload's own path (for the largest-self-time ranking;
  /// both workloads decode).
  bool path_compress = true;
  bool path_remote = true;
};

/// Floats of a wire decompress equal the in-process decode, field by field.
bool same_fields(const net::DecompressBody& body,
                 const pipeline::BatchDecompressResult& ref) {
  if (body.fields.size() != ref.fields.size()) return false;
  for (std::size_t f = 0; f < ref.fields.size(); ++f) {
    if (!same_floats(body.fields[f].data, ref.fields[f].decode.data)) {
      return false;
    }
  }
  return true;
}

service::CompressJob bulk_job(const Corpus& corpus) {
  service::CompressJob job;
  for (const data::Field& f : corpus.fields) {
    job.fields.push_back({f.name, f.data, f.dims});
  }
  return job;
}

void check(bool ok, Report& report, const char* what) {
  if (!ok) report.fail(std::string("ladder: ") + what);
}

/// bulk_roundtrip: the op is the whole corpus round trip; the service and
/// wire rungs send it as compress + open_archive + decompress.
void build_bulk(const Corpus& corpus, Stage& s, obs::TraceRecorder& rec,
                Report& report, WorkloadLadder& w) {
  auto specs = std::make_shared<std::vector<pipeline::FieldSpec>>(
      field_specs(corpus, kWholeFieldElems));
  auto ref = std::make_shared<const RoundTrip>(round_trip(s.sched2, *specs));
  const pipeline::MemorySource source(ref->archive);
  const pipeline::ArchiveReader reader(source);

  for (std::size_t op = 0; op < kBulkOps; ++op) {
    timed(rec, op_span(op), [&] {
      for (std::size_t f = 0; f < reader.fields().size(); ++f) {
        for (std::size_t c = 0; c < reader.fields()[f].chunks.size(); ++c) {
          decode_rungs(reader, f, c, rec, w.dec, report);
        }
      }
      for (const data::Field& field : corpus.fields) {
        compress_rungs(field, kWholeFieldElems, rec, w.comp);
      }
      w.comp.write1_s += timed(rec, "pipeline.compress_to_1_worker", [&] {
        check(compress_archive(s.sched1, *specs) == ref->archive, report,
              "1-worker archive differs");
      });
    });
    w.comp.frame_bytes += archive_frame_bytes(ref->archive);
  }
  w.decode_ops = w.compress_ops = kBulkOps;

  for (std::size_t op = 0; op < kBulkOps; ++op) {
    std::array<RungFn, kRungs> rungs;
    for (const Rung r : {kPipe1, kPipe2}) {
      rungs[r] = [&s, &w, &report, specs, ref, r](obs::TraceRecorder& rec) {
        const pipeline::BatchScheduler& sched = r == kPipe1 ? s.sched1 : s.sched2;
        RoundTrip got;
        const double t = timed(rec, kRungNames[r],
                               [&] { got = round_trip(sched, *specs); });
        if (r == kPipe2) {
          w.peak_frame_bytes = std::max(w.peak_frame_bytes, got.peak_frame_bytes);
        }
        check(same_output(got, *ref), report, "pipeline round trip differs");
        return t;
      };
    }
    rungs[kService] = [&s, &corpus, &report, ref](obs::TraceRecorder& rec) {
      service::CompressionService& svc = s.stack.service();
      service::CompressJob job = bulk_job(corpus);
      pipeline::BatchDecompressResult dec;
      bool same_archive = false;
      const double t = timed(rec, kRungNames[kService], [&] {
        service::CompressResult res =
            svc.submit_compress(s.client, std::move(job)).get();
        same_archive = res.archive == ref->archive;
        const auto h = svc.open_archive(
            s.client,
            std::make_shared<pipeline::OwningMemorySource>(std::move(res.archive)));
        dec = svc.submit_decompress(s.client, h).get();
      });
      check(same_archive && same_decode(dec, ref->decoded), report,
            "service round trip differs");
      return t;
    };
    for (const Rung r : {kUnix, kTcp}) {
      rungs[r] = [&s, &corpus, &report, ref, r](obs::TraceRecorder& rec) {
        net::ServiceClient& client = s.wire(r);
        service::CompressJob job = bulk_job(corpus);
        net::DecompressBody body;
        bool same_archive = false;
        const double t = timed(rec, kRungNames[r], [&] {
          const service::CompressResult res =
              client.submit_compress(std::move(job)).get();
          same_archive = res.archive == ref->archive;
          const auto h = client.open_archive(res.archive);
          body = client.submit_decompress(h).get();
        });
        check(same_archive && same_fields(body, ref->decoded), report,
              "wire round trip differs");
        return t;
      };
    }
    w.ladder.ops.push_back(std::move(rungs));
    w.ladder.fans_out.push_back(true);
  }
  w.ladder.entry = kPipe2;
  w.path_remote = false;
}

/// remote_reads: one op per request of the seeded stream (connections
/// interleaved as the sender sends them). The compress-side figures come
/// from building the served archive, one op.
void build_reads(const Corpus& corpus, std::uint64_t seed, Stage& s,
                 obs::TraceRecorder& rec, Report& report, WorkloadLadder& w,
                 std::shared_ptr<const ReadSet> set) {
  // The rungs outlive this function, so the reader and the source it reads
  // from share one owner.
  struct Opened {
    explicit Opened(std::span<const std::uint8_t> bytes)
        : source(bytes), reader(source) {}
    pipeline::MemorySource source;
    pipeline::ArchiveReader reader;
  };
  const auto opened = std::make_shared<const Opened>(set->archive);
  const std::shared_ptr<const pipeline::ArchiveReader> reader(opened,
                                                              &opened->reader);
  const std::vector<ReadRequest> reqs =
      make_read_schedule(seed, set->layout, kConnections, kReadOps);

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ReadRequest& r = reqs[i];
    const FieldLayout& layout = set->layout[r.field];
    const std::size_t first = r.is_range ? layout.chunk_of(r.elem_begin) : r.chunk;
    const std::size_t last = r.is_range ? layout.chunk_of(r.elem_end - 1) : r.chunk;
    timed(rec, op_span(i), [&] {
      for (std::size_t c = first; c <= last; ++c) {
        decode_rungs(*reader, r.field, c, rec, w.dec, report);
      }
    });
  }
  w.decode_ops = reqs.size();

  const auto specs = field_specs(corpus, kReadChunkElems);
  timed(rec, "build_archive", [&] {
    for (const data::Field& field : corpus.fields) {
      compress_rungs(field, kReadChunkElems, rec, w.comp);
    }
    w.comp.write1_s += timed(rec, "pipeline.compress_to_1_worker", [&] {
      check(compress_archive(s.sched1, specs) == set->archive, report,
            "1-worker archive differs");
    });
  });
  w.comp.frame_bytes = archive_frame_bytes(set->archive);
  w.compress_ops = 1;

  service::CompressionService& svc = s.stack.service();
  const auto svc_handle = svc.open_archive(
      s.client, std::make_shared<pipeline::OwningMemorySource>(set->archive));
  const auto unix_handle = s.unix_client->open_archive(set->archive);
  const auto tcp_handle = s.tcp_client->open_archive(set->archive);

  for (const ReadRequest& req : reqs) {
    std::array<RungFn, kRungs> rungs;
    auto verify = [&report, set, req](const std::vector<float>& got) {
      check(same_floats(got, set->expected(req)), report,
            "read differs from the reference decode");
    };
    for (const Rung r : {kPipe1, kPipe2}) {
      rungs[r] = [&s, &w, reader, req, r, verify](obs::TraceRecorder& rec) {
        const pipeline::BatchScheduler& sched = r == kPipe1 ? s.sched1 : s.sched2;
        std::vector<float> got;
        const double t = timed(rec, kRungNames[r], [&] {
          if (req.is_range) {
            got = sched.decode_range(*reader, req.field, req.elem_begin,
                                     req.elem_end);
          } else {
            cudasim::SimContext ctx;
            got = reader->decode_chunk(ctx, req.field, req.chunk).data;
          }
        });
        w.peak_frame_bytes = std::max(w.peak_frame_bytes, reader->peak_frame_bytes());
        verify(got);
        return t;
      };
    }
    rungs[kService] = [&s, svc_handle, req, verify](obs::TraceRecorder& rec) {
      service::CompressionService& svc = s.stack.service();
      std::vector<float> got;
      const double t = timed(rec, kRungNames[kService], [&] {
        got = req.is_range ? svc.submit_range(s.client, svc_handle, req.field,
                                              req.elem_begin, req.elem_end)
                                 .get()
                           : svc.submit_chunk(s.client, svc_handle, req.field,
                                              req.chunk)
                                 .get();
      });
      verify(got);
      return t;
    };
    for (const Rung r : {kUnix, kTcp}) {
      const auto handle = r == kUnix ? unix_handle : tcp_handle;
      rungs[r] = [&s, handle, req, r, verify](obs::TraceRecorder& rec) {
        net::ServiceClient& client = s.wire(r);
        std::vector<float> got;
        const double t = timed(rec, kRungNames[r], [&] {
          got = req.is_range ? client.submit_range(handle, req.field,
                                                   req.elem_begin, req.elem_end)
                                   .get()
                             : client.submit_chunk(handle, req.field, req.chunk)
                                   .get();
        });
        verify(got);
        return t;
      };
    }
    w.ladder.ops.push_back(std::move(rungs));
    w.ladder.fans_out.push_back(req.is_range);
  }
  w.ladder.entry = kTcp;
  w.path_compress = false;
}

/// Registry queue wait (power-of-two bucket bounds) of the busiest request
/// class: {p50 ms, p99 ms, class}.
struct QueueWait {
  double p50_ms = 0, p99_ms = 0;
  std::string cls;
  std::uint64_t count = 0;
};

QueueWait queue_wait() {
  const obs::Snapshot snap = obs::registry().snapshot();
  QueueWait q;
  for (const char* cls : {"compress", "decompress", "chunk", "range"}) {
    const obs::HistogramSnap* h =
        snap.histogram(std::string("service.") + cls + ".queue_wait_ns");
    if (h != nullptr && h->count > q.count) {
      q = {static_cast<double>(h->p50_ns) * 1e-6,
           static_cast<double>(h->p99_ns) * 1e-6, cls, h->count};
    }
  }
  return q;
}

}  // namespace

void run_ladder(const RunArgs& args, Report& report) {
  obs::TraceRecorder recorder;
  const obs::ScopedTelemetry telemetry(&recorder);
  const Corpus corpus = make_corpus();
  const std::string stem =
      args.out_dir + "/ladder-" + args.workload + "-" + std::to_string(args.seed);
  const std::string sock = args.out_dir + "/pb-" + std::to_string(getpid()) + ".sock";

  WorkloadLadder w;
  std::shared_ptr<const ReadSet> reads;
  std::unique_ptr<Stage> stage;
  if (args.workload == "bulk_roundtrip") {
    stage = std::make_unique<Stage>(kWholeFieldElems, sock);
    build_bulk(corpus, *stage, recorder, report, w);
  } else {
    reads = std::make_shared<const ReadSet>(prepare_reads(corpus, report));
    stage = std::make_unique<Stage>(kReadChunkElems, sock);
    build_reads(corpus, args.seed, *stage, recorder, report, w, reads);
  }
  const LadderResult top = run_top_rungs(w.ladder, *stage, recorder);
  const std::size_t ops = w.ladder.ops.size();
  report.add_attempted(ops);

  // Traced replay of the workload's own load loop: lateness of the sending
  // thread and the service's queue wait under the workload's traffic.
  const double load_s = std::min(args.seconds, kLoadSeconds);
  std::vector<double> lag_ms;
  service::ServiceStats svc_stats = stage->stack.service().stats();
  net::ServerStats net_stats = stage->stack.server().stats();
  QueueWait qw;
  if (args.workload == "bulk_roundtrip") {
    qw = queue_wait();  // from the ladder's service and wire rungs
    const auto specs = field_specs(corpus, kWholeFieldElems);
    const std::uint64_t deadline =
        obs::now_ns() + static_cast<std::uint64_t>(load_s * 1e9);
    std::uint64_t prev_end = 0;
    timed(recorder, "load.bulk_roundtrip", [&] {
      while (obs::now_ns() < deadline) {
        const std::uint64_t start = obs::now_ns();
        if (prev_end != 0) {
          lag_ms.push_back(static_cast<double>(start - prev_end) * 1e-6);
        }
        timed(recorder, "load.round_trip",
              [&] { (void)round_trip(stage->sched2, specs); });
        prev_end = obs::now_ns();
      }
    });
  } else {
    obs::registry().reset();
    RemoteStack load(kReadChunkElems, "", kConnections);
    std::vector<service::ArchiveHandle> handles;
    for (std::size_t c = 0; c < kConnections; ++c) {
      handles.push_back(load.client(c).open_archive(reads->archive));
    }
    const std::vector<ReadRequest> reqs = make_read_schedule(
        args.seed, reads->layout, kConnections,
        static_cast<std::size_t>(load_s * kReadRate));
    LoadResult res;
    timed(recorder, "load.remote_reads", [&] {
      drive_reads(load, handles, *reads, reqs, 0, kReadRate, res, report);
    });
    lag_ms = res.lag_ms;
    report.add_attempted(res.attempted);
    report.add_failed(res.failed);
    qw = queue_wait();
    svc_stats = load.service().stats();
    net_stats = load.server().stats();
    report.detail("load.requests", static_cast<double>(res.attempted));
    report.detail("load.latency_p50_ms", quantile(res.latency_ms, 0.5));
  }
  if (lag_ms.empty()) lag_ms.push_back(0.0);

  const DecodeSums& d = w.dec;
  const CompressSums& c = w.comp;
  const std::size_t dops = w.decode_ops;
  const std::size_t cops = w.compress_ops;
  const auto per_dop = [&](double v) { return v / static_cast<double>(dops); };
  const auto per_cop = [&](double v) { return v / static_cast<double>(cops); };
  report.set("huffman.decode_ns_per_symbol",
             d.huffman_s * 1e9 / static_cast<double>(d.symbols));
  report.set("huffman.encode_ns_per_symbol",
             c.encode_s * 1e9 / static_cast<double>(c.symbols));
  report.set("cudasim.self_ms_per_op", ms_per_op(d.core_s - d.huffman_s, dops));
  report.set("cudasim.launches_per_op", per_dop(static_cast<double>(d.launches)));
  report.set("core.sim_decode_write_s", per_dop(d.phases.decode_write_s));
  report.set("core.sim_tune_s", per_dop(d.phases.tune_s));
  report.set("core.sim_output_index_s", per_dop(d.phases.output_index_s));
  report.set("core.sim_other_s", per_dop(d.phases.other_s));
  report.set("sz.quantize_ms_per_op", ms_per_op(c.quantize_s, cops));
  report.set("sz.reconstruct_ms_per_op", ms_per_op(d.sz_s - d.core_s, dops));
  report.set("sz.sim_reconstruct_s", per_dop(d.sim_reconstruct_s));
  report.set("pipeline.fetch_ms_per_op", ms_per_op(d.fetch_s, dops));
  report.set("pipeline.verify_ms_per_op", ms_per_op(d.read_s - d.fetch_s, dops));
  const double chunk_self = d.chunk_s - d.read_s - d.sz_s;
  report.set("pipeline.chunk_self_ms_per_op", ms_per_op(chunk_self, dops));
  const double write_self = c.write1_s - c.quantize_s - c.encode_s;
  report.set("pipeline.write_self_ms_per_op", ms_per_op(write_self, cops));
  const double fan1_s = sum_where(top.t[kPipe1], w.ladder.fans_out);
  const double fan2_s = sum_where(top.t[kPipe2], w.ladder.fans_out);
  if (!(fan2_s > 0.0)) throw std::runtime_error("no replay op fans out");
  report.set("pipeline.fanout_efficiency", fan1_s / (2.0 * fan2_s));
  report.set("pipeline.frames_per_op", per_dop(static_cast<double>(d.frames)));
  report.set("pipeline.frame_bytes_per_op",
             per_dop(static_cast<double>(d.frame_bytes)));
  report.set("pipeline.peak_frame_bytes", static_cast<double>(w.peak_frame_bytes));

  const auto svc_marginal = diff_ms(top.t[kService], top.t[kPipe2]);
  const auto net_marginal = diff_ms(top.t[kTcp], top.t[kService]);
  report.set("service.marginal_p50_ms", quantile(svc_marginal, 0.5));
  report.set("service.marginal_p99_ms", quantile(svc_marginal, 0.99));
  report.set("service.queue_wait_p50_ms", qw.p50_ms);
  report.set("service.queue_wait_p99_ms", qw.p99_ms);
  report.set("service.completed", static_cast<double>(svc_stats.completed));
  report.set("service.rejected", static_cast<double>(svc_stats.rejected()));
  report.set("net.marginal_p50_ms", quantile(net_marginal, 0.5));
  report.set("net.marginal_p99_ms", quantile(net_marginal, 0.99));
  report.set("net.tcp_over_unix_p50_ms",
             quantile(diff_ms(top.t[kTcp], top.t[kUnix]), 0.5));
  const double frames_in = static_cast<double>(std::max<std::uint64_t>(top.wire_frames_in, 1));
  report.set("net.bytes_in_per_request",
             static_cast<double>(top.wire_bytes_in) / frames_in);
  report.set("net.bytes_out_per_request",
             static_cast<double>(top.wire_bytes_out) / frames_in);
  report.set("net.frames_per_request",
             static_cast<double>(top.wire_frames_in + top.wire_frames_out) /
                 frames_in);
  report.set("net.error_frames", static_cast<double>(net_stats.error_frames));
  report.set("net.decode_rejects", static_cast<double>(net_stats.decode_rejects));

  // CRC-32 work per op: archive frames once per write and once per read,
  // every wire payload twice (sender and receiver).
  const double wire_per_op =
      static_cast<double>(top.wire_bytes_in + top.wire_bytes_out) /
      static_cast<double>(ops);
  double crc_bytes = 0;
  crc_bytes += per_dop(static_cast<double>(d.frame_bytes));
  if (w.path_compress) crc_bytes += per_cop(static_cast<double>(c.frame_bytes));
  if (w.path_remote) crc_bytes += 2.0 * wire_per_op;
  report.set("util.crc32_bytes_per_op", crc_bytes);
  report.set("util.crc32_ms_per_op",
             crc32_ms(static_cast<std::uint64_t>(crc_bytes)));
  report.set("obs.tracing_overhead_fraction",
             sum(top.t[w.ladder.entry]) / sum(top.entry_off) - 1.0);
  report.set("loadgen.lag_p99_ms", quantile(lag_ms, 0.99));
  report.set("loadgen.lag_max_ms", quantile(lag_ms, 1.0));

  // Self time per layer along the workload's own path, ms per op.
  std::map<std::string, double> self;
  const auto compress_side = [&](double seconds) {
    return w.path_compress ? ms_per_op(seconds, cops) : 0.0;
  };
  self["huffman"] = ms_per_op(d.huffman_s, dops) + compress_side(c.encode_s);
  self["cudasim"] = ms_per_op(d.core_s - d.huffman_s, dops);
  self["sz"] = ms_per_op(d.sz_s - d.core_s, dops) + compress_side(c.quantize_s);
  self["pipeline"] = ms_per_op(d.chunk_s - d.sz_s, dops) + compress_side(write_self);
  self["service"] = w.path_remote ? ms_per_op(sum(top.t[kService]) - sum(top.t[kPipe2]), ops) : 0.0;
  self["net"] = w.path_remote ? ms_per_op(sum(top.t[kTcp]) - sum(top.t[kService]), ops) : 0.0;
  std::string largest;
  for (const auto& [layer, ms] : self) {
    report.detail("self_ms_per_op." + layer, ms);
    if (largest.empty() || ms > self[largest]) largest = layer;
  }
  report.detail("largest_self_layer", largest);
  report.detail("ladder.ops", static_cast<double>(ops));
  report.detail("ladder.decode_ops", static_cast<double>(dops));
  report.detail("ladder.compress_ops", static_cast<double>(cops));
  report.detail("service.queue_wait_class", qw.cls);
  report.detail("service.queue_wait_samples", static_cast<double>(qw.count));
  report.detail("samples.lag", static_cast<double>(lag_ms.size()));
  for (int r = 0; r < kRungs; ++r) {
    report.detail(std::string("rung_ms_per_op.") + kRungNames[r],
                  ms_per_op(sum(top.t[r]), ops));
  }

  report.detail("ladder.fanout_ops",
                static_cast<double>(std::count(w.ladder.fans_out.begin(),
                                               w.ladder.fans_out.end(), true)));
  if (args.workload == "remote_reads") {
    // Share of the one-at-a-time in-process service time that the range
    // requests (the ops that fan out) carry; the mix aims at equal decode
    // work, which this shows in host time.
    report.detail("mix.range_service_time_share",
                  sum_where(top.t[kService], w.ladder.fans_out) /
                      sum(top.t[kService]));
  }

  stage.reset();  // joins every thread that could still record spans
  const std::string trace_file = stem + ".trace.json";
  std::ofstream(trace_file) << recorder.chrome_trace_json();
  report.detail("trace.file", trace_file);
  report.detail("trace.spans", static_cast<double>(recorder.spans().size()));
}

}  // namespace perfbench
