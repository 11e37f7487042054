// Byte-level (de)serialization of encoded Huffman streams, so compressed data
// can be persisted or shipped between encoder and decoder processes. The
// format is versioned and self-describing; deserialization validates every
// length against the blob size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/huffman_codec.hpp"

namespace ohd::core {

/// Serializes an encoded stream (method tag + codebook + payload + sidecars).
/// With `include_codebook == false` the codebook section is written as a
/// zero-length array: the stream then deserializes only against an external
/// (shared) codebook — the archive's shared-codebook path, which stores
/// one field-level codebook instead of one per chunk.
std::vector<std::uint8_t> serialize_stream(const EncodedStream& enc,
                                           bool include_codebook = true);

/// Parses a serialized stream; throws std::invalid_argument on truncation,
/// bad magic, or inconsistent metadata. A stream whose codebook section is
/// empty resolves its codebook from `shared_codebook`; passing none for such
/// a stream is an error (the stream is undecodable without a codebook).
EncodedStream deserialize_stream(
    std::span<const std::uint8_t> bytes,
    const huffman::Codebook* shared_codebook = nullptr);

}  // namespace ohd::core
