#include "persist/plan_blob.h"

#include <cstring>

#include "support/hash.h"

namespace nabbitc::persist {

namespace {

using nabbit::Key;

constexpr std::uint64_t align8(std::uint64_t v) { return (v + 7) & ~std::uint64_t{7}; }

/// Element size of each section, given the header counts. Returns the
/// UNALIGNED byte size; layout adds inter-section padding.
std::uint64_t section_bytes(const PlanBlobHeader& h, std::uint32_t sec) {
  const std::uint64_t n = h.n;
  switch (sec) {
    case kSecKeys:        return n * sizeof(Key);
    case kSecPredOff:     return (n + 1) * sizeof(std::uint32_t);
    case kSecPredIdx:     return std::uint64_t{h.n_edges} * sizeof(std::uint32_t);
    case kSecSpec:        return h.spec_len;
    default:              return 0;
  }
}

/// Fills section_off[] + total_bytes from the counts (the one layout
/// function both writer and reader use — the reader recomputes and demands
/// an exact match, so there is no "attacker chooses offsets" surface).
void compute_layout(PlanBlobHeader& h) {
  std::uint64_t off = sizeof(PlanBlobHeader);
  for (std::uint32_t s = 0; s < kPlanBlobSections; ++s) {
    off = align8(off);
    h.section_off[s] = off;
    off += section_bytes(h, s);
  }
  h.total_bytes = off;
}

std::uint64_t header_hash_of(const PlanBlobHeader& h) {
  PlanBlobHeader tmp = h;
  tmp.header_hash = 0;
  const auto* p = reinterpret_cast<const std::uint8_t*>(&tmp);
  return fnv1a_64({p, sizeof(tmp)});
}

template <typename T>
std::span<const T> typed_section(std::span<const std::uint8_t> bytes,
                                 const PlanBlobHeader& h, std::uint32_t sec) {
  const std::uint64_t len = section_bytes(h, sec) / sizeof(T);
  return {reinterpret_cast<const T*>(bytes.data() + h.section_off[sec]),
          static_cast<std::size_t>(len)};
}

}  // namespace

const char* blob_error_name(BlobError e) {
  switch (e) {
    case BlobError::kOk:           return "ok";
    case BlobError::kTruncated:    return "truncated";
    case BlobError::kBadMagic:     return "bad-magic";
    case BlobError::kBadEndian:    return "bad-endianness";
    case BlobError::kBadVersion:   return "bad-version";
    case BlobError::kBadAbi:       return "bad-abi";
    case BlobError::kBadChecksum:  return "bad-checksum";
    case BlobError::kBadLayout:    return "bad-layout";
    case BlobError::kBadStructure: return "bad-structure";
  }
  return "unknown";
}

std::vector<std::uint8_t> serialize_plan(const plan::GraphPlan& plan,
                                         std::span<const std::uint8_t> spec_bytes,
                                         std::uint64_t spec_hash) {
  const plan::FrozenPlan& f = plan.frozen();

  PlanBlobHeader h{};
  std::memcpy(h.magic, kPlanBlobMagic, sizeof(h.magic));
  h.endian = kPlanBlobEndianMarker;
  h.version = kPlanBlobVersion;
  h.abi = plan_blob_abi();
  h.spec_hash = spec_hash;
  h.flags = (plan.colored() ? kPlanBlobFlagColored : 0u) |
            (f.serial_lower ? kPlanBlobFlagSerialLowered : 0u);
  h.n = f.n;
  h.sink_key = f.keys[0];
  h.instance_slab_bytes = f.instance_slab_bytes;
  h.n_edges = static_cast<std::uint32_t>(f.pred_idx.size());
  h.spec_len = static_cast<std::uint32_t>(spec_bytes.size());
  compute_layout(h);

  // Padding gaps are zeroed by the vector fill, so identical plans always
  // serialize to identical bytes (the round-trip tests memcmp on this).
  std::vector<std::uint8_t> out(h.total_bytes, 0);
  auto put = [&](std::uint32_t sec, const void* src) {
    const std::uint64_t len = section_bytes(h, sec);
    if (len != 0) std::memcpy(out.data() + h.section_off[sec], src, len);
  };
  put(kSecKeys, f.keys.data());
  put(kSecPredOff, f.pred_off.data());
  put(kSecPredIdx, f.pred_idx.data());
  put(kSecSpec, spec_bytes.data());

  h.body_hash = bulk_hash_64(
      {out.data() + sizeof(PlanBlobHeader), out.size() - sizeof(PlanBlobHeader)});
  h.header_hash = header_hash_of(h);
  std::memcpy(out.data(), &h, sizeof(h));
  return out;
}

BlobError PlanBlobView::parse(std::span<const std::uint8_t> bytes) {
  bytes_ = {};
  spec_ = {};

  // The typed section views alias the input, so the input must satisfy the
  // strictest element alignment (8, for the Key arrays). mmap bases are
  // page-aligned and heap buffers are max_align_t-aligned, so a failure
  // here means the caller sliced mid-buffer.
  if ((reinterpret_cast<std::uintptr_t>(bytes.data()) & 7) != 0) {
    return BlobError::kBadLayout;
  }

  // --- layer 1: stamps (each readable before trusting anything else).
  if (bytes.size() < sizeof(PlanBlobHeader)) return BlobError::kTruncated;
  std::memcpy(&hdr_, bytes.data(), sizeof(hdr_));
  if (std::memcmp(hdr_.magic, kPlanBlobMagic, sizeof(hdr_.magic)) != 0) {
    return BlobError::kBadMagic;
  }
  if (hdr_.endian != kPlanBlobEndianMarker) return BlobError::kBadEndian;
  if (hdr_.version != kPlanBlobVersion) return BlobError::kBadVersion;
  if (hdr_.abi != plan_blob_abi()) return BlobError::kBadAbi;

  // --- layer 2: checksums. Header first (it vouches for body_hash and
  // total_bytes), then size, then body.
  if (header_hash_of(hdr_) != hdr_.header_hash) return BlobError::kBadChecksum;
  if (hdr_.total_bytes < sizeof(PlanBlobHeader)) return BlobError::kBadLayout;
  if (hdr_.total_bytes > bytes.size()) return BlobError::kTruncated;
  if (hdr_.total_bytes < bytes.size()) return BlobError::kBadLayout;  // junk tail
  if (bulk_hash_64({bytes.data() + sizeof(PlanBlobHeader),
                    static_cast<std::size_t>(hdr_.total_bytes) -
                        sizeof(PlanBlobHeader)}) != hdr_.body_hash) {
    return BlobError::kBadChecksum;
  }

  // --- layer 3: layout. Caps keep every size product far below 2^63 so
  // the offset arithmetic below cannot overflow; real plans sit orders of
  // magnitude under all of them.
  if ((hdr_.flags & ~kPlanBlobKnownFlags) != 0) return BlobError::kBadLayout;
  if (hdr_.n == 0 || hdr_.n > (1u << 24)) return BlobError::kBadLayout;
  if (hdr_.n_edges > (1u << 28)) return BlobError::kBadLayout;
  if (hdr_.spec_len > (64u << 20)) return BlobError::kBadLayout;

  // Offsets are fully determined by the counts: recompute and require an
  // exact match, including the total.
  {
    PlanBlobHeader expect = hdr_;
    compute_layout(expect);
    if (expect.total_bytes != hdr_.total_bytes) return BlobError::kBadLayout;
    for (std::uint32_t s = 0; s < kPlanBlobSections; ++s) {
      if (expect.section_off[s] != hdr_.section_off[s]) {
        return BlobError::kBadLayout;
      }
    }
  }

  bytes_ = bytes;
  spec_ = {bytes.data() + hdr_.section_off[kSecSpec], hdr_.spec_len};

  // --- layer 4: structure. Borrow the views (no backing needed — nothing
  // escapes this frame) and prove the persisted arrays' invariants.
  if (hdr_.sink_key != typed_section<Key>(bytes_, hdr_, kSecKeys)[0]) {
    bytes_ = {};
    spec_ = {};
    return BlobError::kBadStructure;
  }
  if (!plan::validate_frozen(frozen(nullptr))) {
    bytes_ = {};
    spec_ = {};
    return BlobError::kBadStructure;
  }
  return BlobError::kOk;
}

plan::FrozenPlan PlanBlobView::frozen(std::shared_ptr<const void> backing) const {
  plan::FrozenPlan f;
  f.n = hdr_.n;
  f.keys = typed_section<Key>(bytes_, hdr_, kSecKeys);
  f.pred_off = typed_section<std::uint32_t>(bytes_, hdr_, kSecPredOff);
  f.pred_idx = typed_section<std::uint32_t>(bytes_, hdr_, kSecPredIdx);
  f.instance_slab_bytes = hdr_.instance_slab_bytes;
  f.serial_lower = (hdr_.flags & kPlanBlobFlagSerialLowered) != 0;
  f.backing = std::move(backing);
  return f;
}

void reseal_blob(std::span<std::uint8_t> bytes) {
  if (bytes.size() < sizeof(PlanBlobHeader)) return;
  PlanBlobHeader h;
  std::memcpy(&h, bytes.data(), sizeof(h));
  h.total_bytes = bytes.size();
  h.body_hash = bulk_hash_64(
      {bytes.data() + sizeof(PlanBlobHeader), bytes.size() - sizeof(h)});
  h.header_hash = header_hash_of(h);
  std::memcpy(bytes.data(), &h, sizeof(h));
}

}  // namespace nabbitc::persist
