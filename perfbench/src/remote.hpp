// The remote workload's stack (CompressionService + ServiceServer + wire
// clients, all in this process) and its load generator, shared by the timed
// run and the traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "corpus.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "report.hpp"
#include "service/compression_service.hpp"

namespace perfbench {

/// Service, server and `connections` clients. Destruction order (clients,
/// server, service) follows the member order.
class RemoteStack {
 public:
  /// Listens on TCP loopback, plus a Unix socket when `unix_path` is
  /// nonempty; the `connections` clients connect over TCP.
  RemoteStack(std::size_t chunk_elems, const std::string& unix_path,
              std::size_t connections);

  ohd::service::CompressionService& service() { return svc_; }
  ohd::net::ServiceServer& server() { return server_; }
  ohd::net::ServiceClient& client(std::size_t i) { return *clients_.at(i); }
  std::size_t connections() const { return clients_.size(); }
  /// A further client over `kind` with this stack's session options.
  std::unique_ptr<ohd::net::ServiceClient> connect(
      ohd::net::Endpoint::Kind kind) const;

 private:
  std::size_t chunk_elems_;
  ohd::service::CompressionService svc_;
  ohd::net::ServiceServer server_;
  std::vector<std::unique_ptr<ohd::net::ServiceClient>> clients_;
};

/// remote_reads inputs and references: the 4096-element-chunk archive and
/// its in-process decode, which every response is compared against.
struct ReadSet {
  std::vector<std::uint8_t> archive;
  std::vector<FieldLayout> layout;
  std::vector<std::vector<float>> decoded;  // per field, whole field
  double sim_huffman_s = 0.0;  // model seconds of the reference decode
  double sim_total_s = 0.0;

  /// The reference floats a request must return.
  std::span<const float> expected(const ReadRequest& r) const;
};

struct LoadResult {
  std::vector<double> latency_ms;  // one per attempted request
  std::vector<bool> latency_is_range;  // the class of each latency sample
  std::vector<double> lag_ms;      // send lateness, one per sent request
  std::vector<double> response_gbps;  // bytes / latency, per correct response
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;   // uncompressed bytes moved by completed requests
  double window_s = 0.0;     // first send to last completion, summed
};

/// Open loop: one sender thread sends `reqs` at `rate` requests/s, request i
/// over client (first + i) % connections, stamping each completion by
/// polling every outstanding future (so a fast response is never stamped
/// behind a slow one), then waits for the last response. Latency runs from
/// the INTENDED send time. Appends to `out`.
void drive_reads(RemoteStack& stack,
                 const std::vector<ohd::service::ArchiveHandle>& handles,
                 const ReadSet& refs, std::span<const ReadRequest> reqs,
                 std::size_t first, double rate, LoadResult& out,
                 Report& report);

/// Builds the remote_reads archive and its reference decode in process, on
/// a 2-worker pool; a reference outside the error bound fails `report`.
ReadSet prepare_reads(const Corpus& corpus, Report& report);

}  // namespace perfbench
