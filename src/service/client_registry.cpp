#include "service/client_registry.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace ohd::service {

const char* priority_name(Priority priority) {
  switch (priority) {
    case Priority::Interactive:
      return "interactive";
    case Priority::Batch:
      return "batch";
    case Priority::Background:
      return "background";
  }
  return "unknown";
}

Deadline Deadline::after(std::chrono::nanoseconds d) {
  // Clamp to "at least 1ns from the epoch": ns == 0 is the "none" sentinel
  // and must never be produced by a real deadline request.
  const std::int64_t now = static_cast<std::int64_t>(obs::now_ns());
  const std::int64_t at = now + d.count();
  return Deadline{at > 0 ? static_cast<std::uint64_t>(at) : 1};
}

const char* request_class_name(RequestClass cls) {
  switch (cls) {
    case RequestClass::Compress:
      return "compress";
    case RequestClass::BatchDecompress:
      return "decompress";
    case RequestClass::RandomAccessChunk:
      return "chunk";
    case RequestClass::RangeDecode:
      return "range";
  }
  return "unknown";
}

ArchiveHandle ClientContext::open_reader(
    std::shared_ptr<const pipeline::ByteSource> source,
    const pipeline::ReaderOptions& options, std::size_t cap,
    std::uint64_t* evicted) {
  if (!source) {
    throw ClientError("open_archive: null byte source");
  }
  // Construct the entry before touching the registry: a malformed archive
  // throws out of the ArchiveReader constructor and must leave the client's
  // handle table (and LRU) exactly as it was.
  auto entry = std::make_shared<ReaderEntry>(std::move(source), options);

  std::lock_guard<std::mutex> lock(mutex_);
  if (cap == 0) {
    throw ClientError("open_archive: reader cap is zero");
  }
  std::int64_t delta = 1;  // one gauge update, so no transient overshoot
  while (readers_.size() >= cap) {
    const ArchiveHandle victim = lru_.back();
    lru_.pop_back();
    readers_.erase(victim);
    --delta;
    if (evicted != nullptr) {
      ++*evicted;
    }
  }
  const ArchiveHandle handle = next_handle_++;
  lru_.push_front(handle);
  readers_.emplace(handle, Slot{lru_.begin(), std::move(entry)});
  if (open_readers_ != nullptr) open_readers_->add(delta);
  return handle;
}

std::shared_ptr<ReaderEntry> ClientContext::reader(ArchiveHandle handle) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = readers_.find(handle);
  if (it == readers_.end()) {
    throw ClientError("unknown archive handle " + std::to_string(handle) +
                      " for client " + std::to_string(id_) +
                      " (closed or evicted?)");
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.entry;
}

void ClientContext::close_reader(ArchiveHandle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = readers_.find(handle);
  if (it == readers_.end()) {
    throw ClientError("close_archive: unknown handle " +
                      std::to_string(handle) + " for client " +
                      std::to_string(id_));
  }
  lru_.erase(it->second.lru_pos);
  readers_.erase(it);
  if (open_readers_ != nullptr) open_readers_->sub(1);
}

std::size_t ClientContext::open_reader_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return readers_.size();
}

void ClientContext::detach_readers_gauge() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_readers_ != nullptr) {
    open_readers_->sub(static_cast<std::int64_t>(readers_.size()));
    open_readers_ = nullptr;
  }
}

bool ClientContext::try_acquire_slot(std::size_t cap) {
  std::uint64_t cur = inflight_.load(std::memory_order_relaxed);
  while (cur < cap) {
    if (inflight_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ClientContext::release_slot() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

bool ClientContext::try_acquire_bytes(std::size_t bytes, std::size_t quota) {
  if (bytes == 0) return true;
  std::uint64_t cur = inflight_bytes_.load(std::memory_order_relaxed);
  while (cur + bytes <= quota) {
    if (inflight_bytes_.compare_exchange_weak(cur, cur + bytes,
                                              std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

void ClientContext::release_bytes(std::size_t bytes) {
  if (bytes != 0) {
    inflight_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

std::shared_ptr<ClientContext> ClientRegistry::open(ClientOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const ClientId id = next_id_++;
  auto ctx =
      std::make_shared<ClientContext>(id, std::move(options), &open_readers_);
  clients_.emplace(id, ctx);
  active_clients_.add(1);
  return ctx;
}

std::shared_ptr<ClientContext> ClientRegistry::find(ClientId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(id);
  if (it == clients_.end()) {
    throw ClientError("unknown client " + std::to_string(id) +
                      " (never opened, or already closed)");
  }
  return it->second;
}

std::shared_ptr<ClientContext> ClientRegistry::close(ClientId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(id);
  if (it == clients_.end()) {
    throw ClientError("close_client: unknown client " + std::to_string(id) +
                      " (double close?)");
  }
  auto ctx = std::move(it->second);
  clients_.erase(it);
  active_clients_.sub(1);
  ctx->detach_readers_gauge();
  return ctx;
}

std::size_t ClientRegistry::size() const {
  return static_cast<std::size_t>(active_clients_.value());
}

std::size_t ClientRegistry::open_readers() const {
  return static_cast<std::size_t>(open_readers_.value());
}

}  // namespace ohd::service
