// PlanBlob: the on-disk form of a compiled GraphPlan.
//
// A blob is one contiguous byte buffer: a fixed 112-byte POD header
// followed by 4 dense, 8-byte-aligned sections holding what compile()
// DECIDED — keys in plan index order and the predecessor CSR (native byte
// order) — plus the canonical WireGraph spec bytes the plan was compiled
// from. Everything derivable from those (colors, the schedule, the key
// table) is rebuilt at load by plan::derive_frozen(), the same code
// compile() runs, so an artifact can never disagree with it — and colors
// follow the LOADING runtime's width.
// A load maps the file, runs parse() (bounds/stamp/checksum/structure
// checks), and hands the persisted views, still pointing into the mapping,
// to plan::restore(). Node *functions* are not serialized — they are
// re-bound by decoding the embedded spec bytes and rebuilding the
// GraphSpec, which is why the spec section exists.
//
// Native byte order is deliberate: a blob is a CACHE ARTIFACT for the
// machine that wrote it, not an interchange format (contrast src/net/wire.h,
// which is explicitly little-endian). The endianness marker, ABI stamp, and
// version exist to DETECT AND REFUSE a foreign or stale blob — each with a
// distinct BlobError so tooling can say why — never to translate one.
//
// Integrity is layered exactly like the wire codec's trust model:
//   1. stamps   — magic/endian/version/ABI refuse foreign files cheaply;
//   2. checksums — header_hash (FNV-1a over 112 bytes) + body_hash
//      (bulk_hash_64, word-parallel so validation stays far cheaper than a
//      recompile) catch torn writes and bit rot before any field is
//      believed;
//   3. layout   — every section offset is recomputed from the counts and
//      must match exactly; all size math is overflow-checked;
//   4. structure — plan::validate_frozen() proves every invariant of the
//      persisted arrays that compile() guarantees, so a doctored blob that
//      passes 1–3 still cannot make derive_frozen() or the replay engine
//      index out of bounds or deadlock.
// A blob that passes all four parses into views safe to hand to restore();
// anything else gets a BlobError and the caller recompiles. (A duplicated
// key is the one defect only the key-table build sees: restore() refuses
// it with nullptr, which the caller treats the same way.)
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "plan/plan.h"

namespace nabbitc::persist {

/// Bumped on ANY change to the header or section layout. Old blobs are
/// refused (kBadVersion) and recompiled — there is no migration, because
/// the cache can always be rebuilt from specs.
/// v2: fused-unit schedule (chain fusion / level order / tiny lowering) —
/// seven unit sections + four header counts; v1 blobs predate the
/// optimization passes and are rejected.
/// v3: only compile()'s decisions are stored (keys, predecessor CSR, unit
/// partition, spec); colors, the unit schedule and the key table are
/// re-derived at load. 13 sections and 5 header counts dropped.
/// v4: the count-locality flag bit is gone (locality is always counted);
/// a v3 blob carries it and is refused rather than reinterpreted.
/// v5: chain fusion is gone, and with it the unit partition (two sections)
/// and the header's unit count; a plan dispatches nodes.
/// v6: the level-ordered layout is gone, and with it the header's pass
/// mask and its padding word (120 -> 112 bytes); the serial-lowered flag
/// is the one record of compile()'s lowering decision.
inline constexpr std::uint32_t kPlanBlobVersion = 6;

/// Written as a native u32; reads back byte-swapped on a foreign-endian
/// machine, which is the detection.
inline constexpr std::uint32_t kPlanBlobEndianMarker = 0x0a0b0c0dU;

inline constexpr char kPlanBlobMagic[4] = {'N', 'B', 'P', 'B'};

/// Sections, in their fixed on-disk order. Element sizes are implied by
/// the header counts; each section starts 8-byte aligned.
enum PlanBlobSection : std::uint32_t {
  kSecKeys = 0,      // Key[n]
  kSecPredOff,       // u32[n+1]
  kSecPredIdx,       // u32[n_edges]
  kSecSpec,          // u8[spec_len]   (canonical REGISTER encoding)
  kPlanBlobSections  // = 4
};

struct PlanBlobHeader {
  char magic[4];               // "NBPB"
  std::uint32_t endian;        // kPlanBlobEndianMarker, native
  std::uint32_t version;       // kPlanBlobVersion
  std::uint32_t abi;           // plan_blob_abi() of the writer
  std::uint64_t total_bytes;   // exact blob size, header included
  std::uint64_t spec_hash;     // content_hash of the spec section's bytes
  std::uint64_t header_hash;   // FNV-1a of this header with this field = 0
  std::uint64_t body_hash;     // bulk_hash_64 of bytes [sizeof(header), total)
  std::uint32_t flags;         // kPlanBlobFlag* only; unknown bits refused
  std::uint32_t n;             // nodes (index 0 = sink)
  std::uint64_t sink_key;      // == keys[0], for inspection without views
  std::uint64_t instance_slab_bytes;
  std::uint32_t n_edges;
  std::uint32_t spec_len;
  std::uint64_t section_off[kPlanBlobSections];  // from blob start
};
static_assert(sizeof(PlanBlobHeader) == 112, "on-disk header layout");
static_assert(sizeof(PlanBlobHeader) % 8 == 0);
static_assert(std::is_trivially_copyable_v<PlanBlobHeader>);

inline constexpr std::uint32_t kPlanBlobFlagColored = 1u << 0;
/// The plan replays through the tiny-graph serial micro-interpreter.
inline constexpr std::uint32_t kPlanBlobFlagSerialLowered = 1u << 1;
inline constexpr std::uint32_t kPlanBlobKnownFlags =
    kPlanBlobFlagColored | kPlanBlobFlagSerialLowered;

/// ABI stamp: the widths whose change would silently reinterpret the
/// section bytes. Any mismatch is kBadAbi.
constexpr std::uint32_t plan_blob_abi() {
  return static_cast<std::uint32_t>(sizeof(nabbit::Key)) |
         (static_cast<std::uint32_t>(sizeof(PlanBlobHeader)) << 16);
}

/// Why a parse refused a blob. Ordered roughly by how early the check
/// runs; every value maps to a stable name for logs and the planc tool.
enum class BlobError : std::uint8_t {
  kOk = 0,
  kTruncated,     // shorter than the header, or than total_bytes claims
  kBadMagic,      // not a PlanBlob at all
  kBadEndian,     // written on a foreign-endian machine
  kBadVersion,    // older/newer layout revision
  kBadAbi,        // same version, different type widths
  kBadChecksum,   // header or body hash mismatch (torn write, bit rot)
  kBadLayout,     // sizes/offsets/flags internally inconsistent
  kBadStructure,  // well-formed bytes, invalid plan (validate_frozen)
};
const char* blob_error_name(BlobError e);

/// Serializes a compiled plan + the canonical spec bytes it was compiled
/// from into a self-contained blob. `spec_hash` is content_hash(spec_bytes)
/// (support/hash.h) — the cache key; callers that persist generic plans may
/// pass empty spec_bytes and any nonzero hash, but then carry the burden of
/// re-binding node functions themselves on load.
std::vector<std::uint8_t> serialize_plan(const plan::GraphPlan& plan,
                                         std::span<const std::uint8_t> spec_bytes,
                                         std::uint64_t spec_hash);

/// A parsed, validated view over blob bytes the caller keeps alive (a
/// MappedFile or an in-memory buffer). parse() copies only the header;
/// every array view aliases the input bytes.
class PlanBlobView {
 public:
  /// Validates `bytes` (which must be 8-byte aligned — mmap and heap
  /// vectors both are) through all four integrity layers. Returns kOk and
  /// arms the accessors, or the first failure with the view unusable.
  BlobError parse(std::span<const std::uint8_t> bytes);

  const PlanBlobHeader& header() const noexcept { return hdr_; }
  std::uint64_t spec_hash() const noexcept { return hdr_.spec_hash; }
  std::uint32_t num_nodes() const noexcept { return hdr_.n; }
  nabbit::Key sink_key() const noexcept { return hdr_.sink_key; }
  bool colored() const noexcept {
    return (hdr_.flags & kPlanBlobFlagColored) != 0;
  }
  /// The embedded canonical spec encoding (decode with net/protocol.h's
  /// decode_register to re-bind node functions). Empty for generic blobs.
  std::span<const std::uint8_t> spec_bytes() const noexcept { return spec_; }

  /// The persisted FrozenPlan views, aliasing the blob bytes, ready for
  /// plan::restore() (which derives the rest). `backing` must keep those
  /// bytes alive (the MappedFile / buffer); it is moved into
  /// FrozenPlan::backing.
  plan::FrozenPlan frozen(std::shared_ptr<const void> backing) const;

 private:
  PlanBlobHeader hdr_{};
  std::span<const std::uint8_t> bytes_;
  std::span<const std::uint8_t> spec_;
};

/// Recomputes total_bytes, body_hash, and header_hash of a blob in place —
/// the "doctor a field, make it internally consistent again" primitive the
/// corruption tests and planc's repair-free surgery use. The bytes must be
/// at least header-sized; no other validation is performed.
void reseal_blob(std::span<std::uint8_t> bytes);

}  // namespace nabbitc::persist
