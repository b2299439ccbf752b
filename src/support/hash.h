// Content hashing: the one spelling of FNV-1a + SplitMix64 finalization.
//
// Everywhere an artifact is keyed by "the bytes of a canonical encoding" —
// REGISTER dedup in src/net/, PlanBlob cache keys in src/persist/, the
// nabbitc-planc tool — the key is content_hash() of those bytes. Hoisted
// here so all consumers share one implementation and one idiom: a content
// hash is a *lookup key*, never an identity proof, so every consumer must
// still byte-compare the canonical encodings on hash equality and reject
// the astronomically-unlikely collision instead of serving the wrong
// artifact.
//
// Hash values are persisted (blob headers, cache filenames), which makes
// this function an on-disk format: changing it orphans every existing
// cache entry, so treat it like persist/plan_blob.h's kPlanBlobVersion.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "support/rng.h"

namespace nabbitc {

inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// Plain FNV-1a over bytes; chainable through `seed` for split buffers.
/// Used directly as the PlanBlob header checksum (136 fixed bytes — the
/// variable-length body uses bulk_hash_64 below).
constexpr std::uint64_t fnv1a_64(std::span<const std::uint8_t> bytes,
                                 std::uint64_t seed = kFnv1a64Offset) noexcept {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) h = (h ^ b) * kFnv1a64Prime;
  return h;
}

/// Content hash of a canonical encoding: FNV-1a folded through SplitMix64
/// for avalanche, with 0 remapped to 1 — every consumer reserves 0 as
/// "no handle". Byte-identical to the original net/ REGISTER hash, so
/// pre-existing handles and cache keys stay stable.
constexpr std::uint64_t content_hash(
    std::span<const std::uint8_t> bytes) noexcept {
  const std::uint64_t h = splitmix64(fnv1a_64(bytes));
  return h == 0 ? 1 : h;
}

/// Bulk checksum for large persisted artifacts (the PlanBlob body): four
/// independent FNV-style 8-byte lanes over 32-byte stripes, lanes merged
/// and finalized through SplitMix64 with the length folded in (so a
/// zero-padded truncation cannot collide). Byte-serial FNV-1a bottlenecks
/// on its per-byte dependency chain (~1 byte/cycle); the four lanes here
/// run their multiplies in parallel, which is what makes mmap-load-with-
/// validation decisively cheaper than a recompile. NOT a content-identity
/// hash (use content_hash for keys) — but its values are persisted in blob
/// headers, so changing it is an on-disk format change too.
inline std::uint64_t bulk_hash_64(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h0 = kFnv1a64Offset;
  std::uint64_t h1 = kFnv1a64Offset ^ 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2 = kFnv1a64Offset ^ 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t h3 = kFnv1a64Offset ^ 0x165667b19e3779f9ULL;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= 32) {
    std::uint64_t w0, w1, w2, w3;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    std::memcpy(&w2, p + 16, 8);
    std::memcpy(&w3, p + 24, 8);
    h0 = (h0 ^ w0) * kFnv1a64Prime;
    h1 = (h1 ^ w1) * kFnv1a64Prime;
    h2 = (h2 ^ w2) * kFnv1a64Prime;
    h3 = (h3 ^ w3) * kFnv1a64Prime;
    p += 32;
    n -= 32;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h0 = (h0 ^ w) * kFnv1a64Prime;
    p += 8;
    n -= 8;
  }
  if (n != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    h0 = (h0 ^ w) * kFnv1a64Prime;
  }
  std::uint64_t h = splitmix64(h0 ^ bytes.size());
  h = splitmix64(h ^ h1);
  h = splitmix64(h ^ h2);
  return splitmix64(h ^ h3);
}

}  // namespace nabbitc
