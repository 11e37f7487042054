#include "service/compression_service.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace.hpp"

namespace ohd::service {

namespace {

/// Registry-held "service.*" instruments with no per-service twin: the
/// queue-age gauges (computed from enqueue stamps) and the per-class
/// histograms. Resolved once; recording through them is lock-free.
/// Heap-allocated so the handles (which point into the process registry,
/// itself never destroyed before exit) outlive every service instance.
struct ServiceMetrics {
  obs::Gauge* queue_age[kPriorityClasses];
  obs::LatencyHistogram* queue_wait[kRequestClasses];
  obs::LatencyHistogram* latency[kRequestClasses];
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics* m = [] {
    auto& r = obs::registry();
    auto* sm = new ServiceMetrics{};
    for (std::size_t i = 0; i < kPriorityClasses; ++i) {
      sm->queue_age[i] = &r.gauge(
          std::string("service.queue_age.") +
          priority_name(static_cast<Priority>(i)) + "_ns");
    }
    for (std::size_t i = 0; i < kRequestClasses; ++i) {
      const std::string base =
          std::string("service.") +
          request_class_name(static_cast<RequestClass>(i));
      sm->queue_wait[i] = &r.histogram(base + ".queue_wait_ns");
      sm->latency[i] = &r.histogram(base + ".latency_ns");
    }
    return sm;
  }();
  return *m;
}

/// Span names of the per-request ScopedOps ("service.compress", ...).
const std::string& span_name(RequestClass cls) {
  static const std::string names[kRequestClasses] = {
      "service.compress", "service.decompress", "service.chunk",
      "service.range"};
  return names[static_cast<std::size_t>(cls)];
}

ServiceConfig normalize(ServiceConfig config) {
  config.dispatchers = std::max<std::size_t>(1, config.dispatchers);
  config.max_queue_depth = std::max<std::size_t>(1, config.max_queue_depth);
  config.max_inflight_per_client =
      std::max<std::size_t>(1, config.max_inflight_per_client);
  config.max_open_readers_per_client =
      std::max<std::size_t>(1, config.max_open_readers_per_client);
  config.max_inflight_bytes_per_client =
      std::max<std::size_t>(1, config.max_inflight_bytes_per_client);
  if (config.sweep_interval.count() <= 0) {
    config.sweep_interval = std::chrono::microseconds(1000);
  }
  return config;
}

/// "~X.X ms" fragments of the pinned rejection messages (one decimal, so a
/// zero hint prints a deterministic "0.0").
std::string format_ms(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(ns) / 1e6);
  return buf;
}

// ---- request byte costs (the quota currency: output floats for reads,
// payload floats for compress). Invalid indices cost 0 instead of throwing:
// admission must never fail a malformed request synchronously — the body
// throws and the request settles with it, where existing callers expect it.

std::size_t compress_cost(const CompressJob& job) {
  std::size_t total = 0;
  for (const CompressField& f : job.fields) {
    total += f.data.size() * sizeof(float);
  }
  return total;
}

std::size_t decompress_cost(const pipeline::ArchiveReader& reader) {
  std::size_t total = 0;
  for (const pipeline::FieldEntry& f : reader.fields()) {
    total += static_cast<std::size_t>(f.dims.count()) * sizeof(float);
  }
  return total;
}

std::size_t chunk_cost(const pipeline::ArchiveReader& reader,
                       std::size_t field, std::size_t chunk) {
  const auto& fields = reader.fields();
  if (field >= fields.size() || chunk >= fields[field].chunks.size()) {
    return 0;
  }
  return static_cast<std::size_t>(fields[field].chunks[chunk].dims.count()) *
         sizeof(float);
}

std::size_t range_cost(std::uint64_t elem_begin, std::uint64_t elem_end) {
  if (elem_end <= elem_begin) return 0;
  return static_cast<std::size_t>(elem_end - elem_begin) * sizeof(float);
}

}  // namespace

CompressionService::CompressionService(ServiceConfig config)
    : config_(normalize(std::move(config))),
      pool_(config_.workers),
      scheduler_(pool_),
      metrics_(obs::registry(),
               {{"service.accepted", &accepted_},
                {"service.rejected_busy", &rejected_busy_},
                {"service.rejected_client_cap", &rejected_client_cap_},
                {"service.rejected_quota", &rejected_quota_},
                {"service.completed", &completed_},
                {"service.failed", &failed_},
                {"service.cancel.total", &cancelled_},
                {"service.cancel.queued", &cancel_queued_},
                {"service.cancel.running", &cancel_running_},
                {"service.expired.total", &expired_},
                {"service.expired.queued", &expired_queued_},
                {"service.shed.count", &shed_},
                {"service.shed.rejected", &shed_rejected_},
                {"service.readers_evicted", &readers_evicted_}},
               {{"service.queue_depth", &queue_depth_gauge_},
                {"service.inflight", &inflight_gauge_},
                {"service.inflight_bytes", &inflight_bytes_gauge_},
                {"service.active_clients", &clients_.active_clients_gauge()},
                {"service.open_readers", &clients_.open_readers_gauge()}}) {
  dispatchers_.reserve(config_.dispatchers);
  for (std::size_t i = 0; i < config_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
  sweeper_ = std::thread([this] { sweeper_loop(); });
}

CompressionService::~CompressionService() { shutdown(); }

ClientId CompressionService::open_client(ClientOptions options) {
  if (stopped()) {
    throw ServiceStopped("open_client: service is shut down");
  }
  return clients_.open(std::move(options))->id();
}

void CompressionService::close_client(ClientId id) {
  clients_.close(id);  // throws ClientError on unknown ids (double close)
}

ArchiveHandle CompressionService::open_archive(
    ClientId id, std::shared_ptr<const pipeline::ByteSource> source) {
  auto client = clients_.find(id);
  std::uint64_t evicted = 0;
  const ArchiveHandle handle =
      client->open_reader(std::move(source), config_.reader,
                          config_.max_open_readers_per_client, &evicted);
  readers_evicted_.add(evicted);
  return handle;
}

void CompressionService::close_archive(ClientId id, ArchiveHandle handle) {
  clients_.find(id)->close_reader(handle);
}

std::uint64_t CompressionService::retry_after_ns_locked() const {
  if (drain_ewma_ns_ <= 0.0) return 0;  // no drain observed yet
  return static_cast<std::uint64_t>(drain_ewma_ns_ *
                                    static_cast<double>(queue_.size()));
}

RequestId CompressionService::admit(RequestClass cls,
                                    std::shared_ptr<RequestState> state,
                                    std::function<void(bool)> run) {
  ClientContext& client = *state->client;
  std::function<void(bool)> shed_run;
  RequestId id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw ServiceStopped("submit: service is shut down");
    }
    const std::string queue_suffix =
        "; queue depth " + std::to_string(queue_.size()) + "/" +
        std::to_string(config_.max_queue_depth) + ")";
    // Client-local limits first (nothing to roll back, and shedding a queue
    // victim for a request the client's own caps then reject would waste
    // admitted work): slot cap, then byte quota, then queue high-water.
    if (!client.try_acquire_slot(config_.max_inflight_per_client)) {
      rejected_client_cap_.add(1);
      throw ServiceBusy("submit: client " + std::to_string(client.id()) +
                        " at in-flight cap (" +
                        std::to_string(client.inflight()) + "/" +
                        std::to_string(config_.max_inflight_per_client) +
                        queue_suffix);
    }
    if (!client.try_acquire_bytes(state->bytes,
                                  config_.max_inflight_bytes_per_client)) {
      client.release_slot();
      rejected_quota_.add(1);
      throw ServiceBusy(
          "submit: client " + std::to_string(client.id()) +
          " over byte quota (in flight " +
          std::to_string(client.inflight_bytes()) + " + request " +
          std::to_string(state->bytes) + " > " +
          std::to_string(config_.max_inflight_bytes_per_client) +
          queue_suffix);
    }
    if (queue_.size() >= config_.max_queue_depth) {
      // One hint for both verdicts, taken over the full queue: computed
      // after the shed, it would count one request fewer than a rejected
      // submit sees at the same depth (0 at depth 1).
      const std::uint64_t hint = retry_after_ns_locked();
      auto victim = queue_.shed_below(state->priority);
      if (!victim) {
        // Nothing below the incoming priority to displace: the incoming
        // request is the one rejected. Roll back its reservations.
        client.release_bytes(state->bytes);
        client.release_slot();
        rejected_busy_.add(1);
        shed_rejected_.add(1);
        throw ServiceOverloaded(
            "submit: queue overloaded (depth " +
                std::to_string(queue_.size()) + "/" +
                std::to_string(config_.max_queue_depth) + "; client " +
                std::to_string(client.id()) + " in-flight " +
                std::to_string(client.inflight()) + "/" +
                std::to_string(config_.max_inflight_per_client) +
                "; retry-after ~" + format_ms(hint) + " ms)",
            hint);
      }
      // A lower-priority victim makes room: it settles with
      // ServiceOverloaded on this thread, after the lock drops. The verdict
      // is written before the release-store on the flag the body acquires.
      const auto vit = live_.find(victim->id);
      if (vit != live_.end()) {
        RequestState& vs = *vit->second;
        vs.shed_retry_after_ns = hint;
        vs.shed_message =
            "request " + std::to_string(victim->id) +
            " shed under overload by " +
            priority_name(state->priority) + "-priority submit (queue depth " +
            std::to_string(queue_.size() + 1) + "/" +
            std::to_string(config_.max_queue_depth) + "; retry-after ~" +
            format_ms(hint) + " ms)";
        vs.shed.store(true, std::memory_order_release);
      }
      queue_depth_gauge_.sub(1);
      shed_run = std::move(victim->run);
    }
    // Admitted: from here to push nothing throws, so acquired slot/bytes
    // are always matched by run_counted()'s release inside the request body.
    state->id = next_request_id_++;
    state->cls = cls;
    id = state->id;
    live_.emplace(id, state);
    accepted_.add(1);
    inflight_gauge_.add(1);
    inflight_bytes_gauge_.add(static_cast<std::int64_t>(state->bytes));
    queue_depth_gauge_.add(1);
    queue_.push(QueuedRequest{id, state->priority, cls,
                              obs::enabled() ? obs::now_ns() : 0,
                              state->deadline_ns, std::move(run)});
  }
  // The shed victim runs OUTSIDE the lock: its body throws the
  // ServiceOverloaded verdict and run_counted settles its accounting.
  if (shed_run) shed_run(false);
  wake_.notify_one();
  return id;
}

void CompressionService::dispatcher_loop() {
  for (;;) {
    QueuedRequest req;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping and fully drained
      auto popped = queue_.pop();
      req = std::move(*popped);
      queue_depth_gauge_.sub(1);
      // Drain-rate EWMA over dispatcher inter-pop gaps feeds the
      // retry-after hints; always-on (steady clock, no telemetry needed).
      const std::uint64_t now = obs::now_ns();
      if (last_pop_ns_ != 0) {
        const double inter = static_cast<double>(now - last_pop_ns_);
        drain_ewma_ns_ = drain_ewma_ns_ == 0.0
                             ? inter
                             : 0.2 * inter + 0.8 * drain_ewma_ns_;
      }
      last_pop_ns_ = now;
    }
    const auto ci = static_cast<std::size_t>(req.cls);
    if (req.enqueue_ns != 0) {
      service_metrics().queue_wait[ci]->record(obs::now_ns() - req.enqueue_ns);
    }
    req.run(true);  // request exceptions settle the request, never escape
  }
}

void CompressionService::sweeper_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    sweep_wake_.wait_for(lock, config_.sweep_interval,
                         [this] { return stopping_; });
    if (stopping_) break;
    const std::uint64_t now = obs::now_ns();
    std::vector<QueuedRequest> expired = queue_.expire(now);
    if (!expired.empty()) {
      queue_depth_gauge_.sub(static_cast<std::int64_t>(expired.size()));
      expired_queued_.add(expired.size());
    }
    // Queue-age gauges: how long the OLDEST queued request of each class has
    // been waiting (0 when the class is empty or was admitted without
    // telemetry, which takes no enqueue stamp).
    ServiceMetrics& m = service_metrics();
    for (std::size_t p = 0; p < kPriorityClasses; ++p) {
      const std::uint64_t oldest =
          queue_.oldest_enqueue_ns(static_cast<Priority>(p));
      m.queue_age[p]->set(
          oldest == 0 ? 0 : static_cast<std::int64_t>(now - oldest));
    }
    if (expired.empty()) continue;
    // Settle the expired requests OUTSIDE the lock: each body re-checks its
    // deadline and throws DeadlineExceeded through run_counted.
    lock.unlock();
    for (QueuedRequest& req : expired) req.run(false);
    lock.lock();
  }
}

void CompressionService::throw_verdict(const RequestState& state) const {
  if (state.shed.load(std::memory_order_acquire)) {
    throw ServiceOverloaded(state.shed_message, state.shed_retry_after_ns);
  }
  if (state.cancel.cancelled()) {
    throw RequestCancelled("request " + std::to_string(state.id) +
                           " cancelled before execution");
  }
  if (state.deadline_ns != 0 && obs::now_ns() >= state.deadline_ns) {
    throw DeadlineExceeded("request " + std::to_string(state.id) +
                           " deadline exceeded before execution");
  }
}

// Settlement accounting runs before the request settles — so by the time
// its callback runs (or a caller's .get() returns or throws), the slot and
// bytes are released, the live_ entry is gone, and the outcome counter has
// settled (stats() read there is exact, not racing the dispatcher's
// cleanup). Every admitted request lands in exactly one of the five outcome
// buckets. A dispatched request's span and latency sample close here too, so
// a registry snapshot taken after it settles holds them; requests settled by
// cancel, shed or expiry never ran and record neither.
template <typename T, typename Fn>
Settled<T> CompressionService::run_counted(RequestState& state,
                                           bool dispatched, Fn&& fn) {
  std::optional<obs::ScopedOp> op;
  if (dispatched) {
    op.emplace(span_name(state.cls),
               service_metrics().latency[static_cast<std::size_t>(state.cls)]);
  }
  Settled<T> outcome;
  obs::Counter* bucket = &completed_;
  try {
    outcome = fn();
  } catch (const ServiceOverloaded&) {
    bucket = &shed_;
    outcome = std::current_exception();
  } catch (const RequestCancelled&) {
    bucket = &cancelled_;
    outcome = std::current_exception();
  } catch (const DeadlineExceeded&) {
    bucket = &expired_;
    outcome = std::current_exception();
  } catch (...) {
    bucket = &failed_;
    outcome = std::current_exception();
  }
  bucket->add(1);
  state.client->release_slot();
  state.client->release_bytes(state.bytes);
  inflight_gauge_.sub(1);
  inflight_bytes_gauge_.sub(static_cast<std::int64_t>(state.bytes));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.erase(state.id);
  }
  return outcome;  // `op` closes before the caller settles the request
}

template <typename T, typename Body>
RequestId CompressionService::submit(RequestClass cls,
                                     std::shared_ptr<RequestState> state,
                                     Body body, OnSettle<T> on_settle) {
  auto run = [this, state, body = std::move(body),
              on_settle = std::move(on_settle)](bool dispatched) {
    on_settle(run_counted<T>(*state, dispatched, [&]() -> T {
      throw_verdict(*state);
      try {
        return body(*state);
      } catch (const pipeline::OperationCancelled&) {
        throw RequestCancelled("request " + std::to_string(state->id) +
                               " cancelled during execution");
      }
    }));
  };
  return admit(cls, std::move(state), std::move(run));
}

CompressResult CompressionService::run_compress(
    const ClientContext& client, const CompressJob& job,
    const CancellationToken& cancel) const {
  const ClientOptions& opt = client.options();
  std::vector<pipeline::FieldSpec> specs;
  specs.reserve(job.fields.size());
  for (const CompressField& f : job.fields) {
    sz::CompressorConfig cfg;
    cfg.rel_error_bound = opt.rel_error_bound;
    cfg.radius = opt.radius;
    cfg.method = opt.method;
    specs.push_back(pipeline::FieldSpec{
        f.name, std::span<const float>(f.data), f.dims, cfg, opt.chunk_elems,
        opt.plan});
  }
  return CompressResult{scheduler_.compress(specs, cancel)};
}

std::shared_ptr<CompressionService::RequestState>
CompressionService::make_state(std::shared_ptr<ClientContext> client,
                               const RequestOptions& opts, std::size_t bytes) {
  auto state = std::make_shared<RequestState>();
  state->priority = opts.priority;
  state->deadline_ns = opts.deadline.ns;
  // Always carry a LIVE token: cancel(RequestId) must be able to signal a
  // running request even when the caller never made one.
  state->cancel =
      opts.cancel.valid() ? opts.cancel : CancellationToken::make();
  state->bytes = bytes;
  state->client = std::move(client);
  return state;
}

RequestId CompressionService::submit_compress(
    ClientId id, CompressJob job, RequestOptions opts,
    OnSettle<CompressResult> on_settle) {
  auto state = make_state(clients_.find(id), opts, compress_cost(job));
  return submit<CompressResult>(
      RequestClass::Compress, std::move(state),
      [this, job = std::move(job)](const RequestState& s) {
        return run_compress(*s.client, job, s.cancel);
      },
      std::move(on_settle));
}

RequestId CompressionService::submit_decompress(
    ClientId id, ArchiveHandle archive, RequestOptions opts,
    OnSettle<pipeline::BatchDecompressResult> on_settle) {
  auto client = clients_.find(id);
  // Resolve the handle NOW: a later LRU eviction must not fail an admitted
  // request, and an unknown handle must throw on the caller's thread.
  auto entry = client->reader(archive);
  auto state =
      make_state(std::move(client), opts, decompress_cost(entry->reader));
  return submit<pipeline::BatchDecompressResult>(
      RequestClass::BatchDecompress, std::move(state),
      [this, entry](const RequestState& s) {
        return scheduler_.decompress(entry->reader, {}, s.cancel);
      },
      std::move(on_settle));
}

RequestId CompressionService::submit_chunk(
    ClientId id, ArchiveHandle archive, std::size_t field, std::size_t chunk,
    RequestOptions opts, OnSettle<std::vector<float>> on_settle) {
  auto client = clients_.find(id);
  auto entry = client->reader(archive);
  auto state = make_state(std::move(client), opts,
                          chunk_cost(entry->reader, field, chunk));
  return submit<std::vector<float>>(
      RequestClass::RandomAccessChunk, std::move(state),
      [this, entry, field, chunk](const RequestState&) {
        // A read returns floats only, so it takes the host path: the range
        // decode over the chunk's extent, which decodes one chunk on the
        // dispatcher thread itself — the request IS the unit of work, so
        // bouncing it through the pool would only add queueing latency. (A
        // single chunk has no interior task boundary, so a running chunk
        // request finishes even if signalled: no token is passed.)
        const std::vector<pipeline::FieldEntry>& fields =
            entry->reader.fields();
        if (field >= fields.size()) {
          throw pipeline::ContainerError("field index out of range");
        }
        if (chunk >= fields[field].chunks.size()) {
          throw pipeline::ContainerError("chunk index out of range");
        }
        const pipeline::ChunkRecord& rec = fields[field].chunks[chunk];
        return scheduler_.decode_range(entry->reader, field, rec.elem_offset,
                                       rec.elem_offset + rec.dims.count());
      },
      std::move(on_settle));
}

RequestId CompressionService::submit_range(
    ClientId id, ArchiveHandle archive, std::size_t field,
    std::uint64_t elem_begin, std::uint64_t elem_end, RequestOptions opts,
    OnSettle<std::vector<float>> on_settle) {
  auto client = clients_.find(id);
  auto entry = client->reader(archive);
  auto state =
      make_state(std::move(client), opts, range_cost(elem_begin, elem_end));
  return submit<std::vector<float>>(
      RequestClass::RangeDecode, std::move(state),
      [this, entry, field, elem_begin, elem_end](const RequestState& s) {
        return scheduler_.decode_range(entry->reader, field, elem_begin,
                                       elem_end, s.cancel);
      },
      std::move(on_settle));
}

Submission<CompressResult> CompressionService::submit_compress(
    ClientId id, CompressJob job, RequestOptions opts) {
  return with_future<CompressResult>([&](auto settle) {
    return submit_compress(id, std::move(job), opts, std::move(settle));
  });
}

Submission<pipeline::BatchDecompressResult>
CompressionService::submit_decompress(ClientId id, ArchiveHandle archive,
                                      RequestOptions opts) {
  return with_future<pipeline::BatchDecompressResult>([&](auto settle) {
    return submit_decompress(id, archive, opts, std::move(settle));
  });
}

Submission<std::vector<float>> CompressionService::submit_chunk(
    ClientId id, ArchiveHandle archive, std::size_t field, std::size_t chunk,
    RequestOptions opts) {
  return with_future<std::vector<float>>([&](auto settle) {
    return submit_chunk(id, archive, field, chunk, opts, std::move(settle));
  });
}

Submission<std::vector<float>> CompressionService::submit_range(
    ClientId id, ArchiveHandle archive, std::size_t field,
    std::uint64_t elem_begin, std::uint64_t elem_end, RequestOptions opts) {
  return with_future<std::vector<float>>([&](auto settle) {
    return submit_range(id, archive, field, elem_begin, elem_end, opts,
                        std::move(settle));
  });
}

CancelResult CompressionService::cancel(RequestId id) {
  std::function<void(bool)> queued_run;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = live_.find(id);
    if (it == live_.end()) {
      return CancelResult::NotFound;  // unknown or already settled: no-op
    }
    // Signal first: if the request is mid-dispatch (popped but not yet past
    // its verdict gate), the flag still lands before the body's check.
    it->second->cancel.request_cancel();
    auto removed = queue_.remove(id);
    if (!removed) {
      cancel_running_.add(1);
      return CancelResult::Signalled;
    }
    queue_depth_gauge_.sub(1);
    cancel_queued_.add(1);
    queued_run = std::move(removed->run);
  }
  // Settle the removed request on this thread, outside the lock:
  // the body's verdict gate sees the cancelled token and throws
  // RequestCancelled through run_counted.
  queued_run(false);
  return CancelResult::Cancelled;
}

void CompressionService::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void CompressionService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  wake_.notify_all();
}

void CompressionService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    paused_ = false;  // a paused service still drains
  }
  wake_.notify_all();
  sweep_wake_.notify_all();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  if (sweeper_.joinable()) sweeper_.join();
}

bool CompressionService::stopped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stopping_;
}

ServiceStats CompressionService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.value();
  s.rejected_busy = rejected_busy_.value();
  s.rejected_client_cap = rejected_client_cap_.value();
  s.rejected_quota = rejected_quota_.value();
  s.completed = completed_.value();
  s.failed = failed_.value();
  s.cancelled = cancelled_.value();
  s.expired = expired_.value();
  s.shed = shed_.value();
  s.readers_evicted = readers_evicted_.value();
  s.queue_depth = queue_depth_gauge_.value();
  s.queue_depth_peak = queue_depth_gauge_.peak();
  s.inflight = inflight_gauge_.value();
  s.inflight_peak = inflight_gauge_.peak();
  s.inflight_bytes = inflight_bytes_gauge_.value();
  s.inflight_bytes_peak = inflight_bytes_gauge_.peak();
  s.active_clients = clients_.size();
  s.open_readers = clients_.open_readers();
  return s;
}

std::size_t CompressionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace ohd::service
