// Per-client state of the compression service: the ROHC-style context
// registry. Each ClientContext pins a client's negotiated ClientOptions for
// its whole lifetime and owns the client's open ArchiveReader handles behind
// an LRU cap; the ClientRegistry maps stable ClientIds to contexts with an
// explicit open/close lifecycle.
//
// Reader entries are shared_ptr-held on purpose: an LRU eviction (or a
// close_reader / close of the whole client) only drops the REGISTRY's
// reference. A request that resolved its handle before the eviction keeps
// the entry — source and reader both — alive until it finishes, so eviction
// can never invalidate an in-flight decode. Nor does it lose counts: each
// reader owns its "reader.io_retries" counter, and the obs registry keeps
// a destroyed reader's count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "pipeline/archive_io.hpp"
#include "pipeline/byte_stream.hpp"
#include "service/service_types.hpp"

namespace ohd::service {

/// An open archive of one client: the owning ByteSource plus the
/// footer-first reader over it. The reader borrows `*source`, so `source`
/// is declared first and the pair always travels together.
struct ReaderEntry {
  std::shared_ptr<const pipeline::ByteSource> source;
  pipeline::ArchiveReader reader;

  ReaderEntry(std::shared_ptr<const pipeline::ByteSource> src,
              const pipeline::ReaderOptions& options)
      : source(std::move(src)), reader(*source, options) {}
};

/// One client's registry entry. Thread-safe: requests of the same client may
/// resolve handles, and the service may open/close archives, concurrently.
class ClientContext {
 public:
  /// `open_readers`, when non-null, is the registry-wide gauge this client
  /// adds its open reader count into, until detach_readers_gauge(); it must
  /// outlive every open_reader/close_reader call made before that.
  ClientContext(ClientId id, ClientOptions options,
                obs::Gauge* open_readers = nullptr)
      : id_(id), options_(std::move(options)), open_readers_(open_readers) {}

  ClientId id() const { return id_; }
  const ClientOptions& options() const { return options_; }

  /// Opens `source` as a new reader handle (the ArchiveReader constructor
  /// runs here and may throw ContainerError/ArchiveError on a malformed
  /// archive — nothing is registered in that case). If the client already
  /// holds `cap` readers, the least-recently-used ones are evicted to make
  /// room; `evicted`, when non-null, is incremented per eviction.
  ArchiveHandle open_reader(std::shared_ptr<const pipeline::ByteSource> source,
                            const pipeline::ReaderOptions& options,
                            std::size_t cap, std::uint64_t* evicted = nullptr);

  /// Resolves a handle to its (shared) entry and marks it most recently
  /// used. Throws ClientError on unknown handles — including ones the LRU
  /// has evicted.
  std::shared_ptr<ReaderEntry> reader(ArchiveHandle handle) const;

  /// Explicitly closes a handle. Throws ClientError if it is not open.
  void close_reader(ArchiveHandle handle);

  std::size_t open_reader_count() const;

  /// Takes this client's readers out of its open-readers gauge and stops
  /// counting into it; the registry calls it when it closes the client.
  void detach_readers_gauge();

  /// Reserves an in-flight slot if the client is under `cap`; the matching
  /// release_slot() must run when the request leaves the service (complete,
  /// failed, cancelled, shed, or expired).
  bool try_acquire_slot(std::size_t cap);
  void release_slot();
  std::uint64_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

  /// Reserves `bytes` of the client's in-flight byte quota; fails when the
  /// reservation would push the client past `quota`. The matching
  /// release_bytes(bytes) must run when the request leaves the service —
  /// exactly once, on every outcome.
  bool try_acquire_bytes(std::size_t bytes, std::size_t quota);
  void release_bytes(std::size_t bytes);
  std::uint64_t inflight_bytes() const {
    return inflight_bytes_.load(std::memory_order_relaxed);
  }

 private:
  const ClientId id_;
  const ClientOptions options_;

  struct Slot {
    std::list<ArchiveHandle>::iterator lru_pos;
    std::shared_ptr<ReaderEntry> entry;
  };
  mutable std::mutex mutex_;
  /// Most recently used at the front; eviction pops the back.
  mutable std::list<ArchiveHandle> lru_;
  std::unordered_map<ArchiveHandle, Slot> readers_;
  ArchiveHandle next_handle_ = 1;
  obs::Gauge* open_readers_;  // guarded by mutex_

  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> inflight_bytes_{0};
};

/// ClientId -> context map with an open/find/close lifecycle. Ids are
/// assigned monotonically from 1 and never reused; find/close on an unknown
/// (or already closed) id throws ClientError, which is what makes a
/// double close an error rather than a no-op.
class ClientRegistry {
 public:
  std::shared_ptr<ClientContext> open(ClientOptions options);
  /// Throws ClientError on unknown/closed ids.
  std::shared_ptr<ClientContext> find(ClientId id) const;
  /// Removes and returns the context (in-flight requests holding it keep it
  /// alive). Throws ClientError on unknown/closed ids.
  std::shared_ptr<ClientContext> close(ClientId id);

  std::size_t size() const;
  /// Sum of open_reader_count() over all active clients.
  std::size_t open_readers() const;

  /// The two counts above as gauges (value + peak), each kept up to date as
  /// clients and readers open and close, so reading one walks no client.
  const obs::Gauge& active_clients_gauge() const { return active_clients_; }
  const obs::Gauge& open_readers_gauge() const { return open_readers_; }

 private:
  mutable std::mutex mutex_;
  std::unordered_map<ClientId, std::shared_ptr<ClientContext>> clients_;
  ClientId next_id_ = 1;
  obs::Gauge active_clients_;
  obs::Gauge open_readers_;
};

}  // namespace ohd::service
