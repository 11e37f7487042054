// Byte-level (de)serialization of full cuSZ-style compressed blobs (header +
// outliers + embedded Huffman stream) — the on-disk/wire format of the
// pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sz/compressor.hpp"

namespace ohd::sz {

/// With `embed_codebook == false` the embedded Huffman stream is written
/// without its codebook (the archive's shared-codebook frames); such a blob
/// can only be parsed back with the matching shared codebook.
std::vector<std::uint8_t> serialize_blob(const CompressedBlob& blob,
                                         bool embed_codebook = true);

/// Throws std::invalid_argument on truncation or inconsistent metadata. A
/// frame whose stream omits its codebook resolves it from `shared_codebook`
/// (required for such frames, ignored for self-contained ones).
CompressedBlob deserialize_blob(
    std::span<const std::uint8_t> bytes,
    const huffman::Codebook* shared_codebook = nullptr);

}  // namespace ohd::sz
