// Tests for plan persistence (src/persist/): PlanBlob serialize/parse
// round-trips, corruption rejection (truncation at every byte, bit flips
// anywhere, doctored stamps each with their distinct error), restore-path
// refusal of stale/foreign artifacts, and the content-addressed cache
// directory's store/load/scan/recovery behaviour including concurrent
// publication (the TSan target).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/runtime.h"
#include "net/protocol.h"
#include "net/remote_graph.h"
#include "persist/mmap_file.h"
#include "persist/plan_blob.h"
#include "persist/plan_cache.h"
#include "rt/status.h"
#include "support/hash.h"
#include "support/rng.h"

namespace nabbitc::persist {
namespace {

using api::Variant;
using nabbit::Key;

api::Runtime make_runtime(Variant v) {
  api::RuntimeOptions opts;
  opts.workers = 2;
  opts.variant = v;
  return api::Runtime(opts);
}

std::vector<std::uint8_t> canon_of(const net::WireGraph& g) {
  net::WireWriter w;
  net::encode_register(g, w);
  return {w.span().begin(), w.span().end()};
}

/// Compile a random wire graph and serialize it the way the server does.
struct CompiledBlob {
  net::WireGraph g;
  std::vector<std::uint8_t> canon;
  std::uint64_t hash = 0;
  std::unique_ptr<net::RemoteGraphSpec> spec;
  std::unique_ptr<plan::GraphPlan> plan;
  std::vector<std::uint8_t> blob;
};

CompiledBlob compile_blob(api::Runtime& rt, std::uint64_t seed,
                          std::uint32_t n) {
  CompiledBlob out;
  out.g = net::make_random_wire_graph(seed, n);
  out.canon = canon_of(out.g);
  out.hash = content_hash({out.canon.data(), out.canon.size()});
  out.spec = std::make_unique<net::RemoteGraphSpec>(out.g, rt.workers());
  out.plan = rt.compile(*out.spec, out.g.sink(), /*reserve_instances=*/2);
  out.blob = serialize_plan(*out.plan, {out.canon.data(), out.canon.size()},
                            out.hash);
  return out;
}

/// Parse a heap copy of a blob (keeps `bytes` alive via shared_ptr so
/// FrozenPlan views can borrow it).
struct ParsedBlob {
  std::shared_ptr<std::vector<std::uint8_t>> bytes;
  PlanBlobView view;
  BlobError error = BlobError::kOk;
};

ParsedBlob parse_copy(const std::vector<std::uint8_t>& blob) {
  ParsedBlob p;
  p.bytes = std::make_shared<std::vector<std::uint8_t>>(blob);
  p.error = p.view.parse({p.bytes->data(), p.bytes->size()});
  return p;
}

std::string make_temp_dir() {
  char tmpl[] = "/tmp/nabbitc-persist-XXXXXX";
  const char* d = ::mkdtemp(tmpl);
  EXPECT_NE(d, nullptr);
  return d == nullptr ? std::string{} : std::string{d};
}

void remove_dir_recursive(const std::string& dir) {
  for (const std::string& name : list_dir(dir)) remove_file(dir + "/" + name);
  ::rmdir(dir.c_str());
}

template <typename T>
void expect_span_eq(std::span<const T> a, std::span<const T> b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(T)), 0) << what;
}

// ----------------------------------------------------------------- PlanBlob

TEST(PlanBlob, RoundTripBitwise) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xb10b, 96);

  ParsedBlob p = parse_copy(c.blob);
  ASSERT_EQ(p.error, BlobError::kOk) << blob_error_name(p.error);
  EXPECT_EQ(p.view.spec_hash(), c.hash);
  EXPECT_EQ(p.view.num_nodes(), c.plan->num_nodes());
  EXPECT_EQ(p.view.sink_key(), c.g.sink());
  EXPECT_TRUE(p.view.colored());
  expect_span_eq(p.view.spec_bytes(),
                 std::span<const std::uint8_t>{c.canon.data(), c.canon.size()},
                 "spec bytes");

  // Every persisted array must round-trip bitwise (the derived ones are
  // not in the blob; RestoredPlanReplaysIdentically compares those).
  const plan::FrozenPlan& a = c.plan->frozen();
  const plan::FrozenPlan b = p.view.frozen(p.bytes);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.instance_slab_bytes, b.instance_slab_bytes);
  EXPECT_EQ(a.serial_lower, b.serial_lower);
  expect_span_eq(a.keys, b.keys, "keys");
  expect_span_eq(a.pred_off, b.pred_off, "pred_off");
  expect_span_eq(a.pred_idx, b.pred_idx, "pred_idx");

  // Serialization is deterministic: same plan, same bytes (padding zeroed).
  const auto again = serialize_plan(*c.plan, {c.canon.data(), c.canon.size()},
                                    c.hash);
  ASSERT_EQ(again.size(), c.blob.size());
  EXPECT_EQ(std::memcmp(again.data(), c.blob.data(), c.blob.size()), 0);
}

TEST(PlanBlob, RestoredPlanReplaysIdentically) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0x5eed, 80);

  ParsedBlob p = parse_copy(c.blob);
  ASSERT_EQ(p.error, BlobError::kOk);

  // Re-bind node functions exactly like the daemon: decode the embedded
  // spec into a FRESH RemoteGraphSpec (the original spec may be gone after
  // a restart) and restore over the parsed views.
  net::WireGraph g2;
  ASSERT_TRUE(net::decode_register(p.view.spec_bytes(), g2, nullptr));
  net::RemoteGraphSpec spec2(g2, rt.workers());
  auto restored =
      rt.restore_plan(spec2, g2.sink(), p.view.frozen(p.bytes),
                      p.view.colored(), /*reserve_instances=*/2);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_nodes(), c.plan->num_nodes());

  // The restored plan serializes back to the exact original blob: frozen
  // state survived the disk round-trip bitwise.
  const auto reblob = serialize_plan(
      *restored, {c.canon.data(), c.canon.size()}, c.hash);
  ASSERT_EQ(reblob.size(), c.blob.size());
  EXPECT_EQ(std::memcmp(reblob.data(), c.blob.data(), c.blob.size()), 0);

  // At the same runtime width, the arrays restore derives equal compile's.
  const plan::FrozenPlan& a = c.plan->frozen();
  const plan::FrozenPlan& b = restored->frozen();
  EXPECT_EQ(a.slot_mask, b.slot_mask);
  expect_span_eq(a.colors, b.colors, "colors");
  expect_span_eq(a.data_colors, b.data_colors, "data_colors");
  expect_span_eq(a.slot_key, b.slot_key, "slot_key");
  expect_span_eq(a.slot_idx, b.slot_idx, "slot_idx");
  expect_span_eq(a.join, b.join, "join");
  expect_span_eq(a.succ_off, b.succ_off, "succ_off");
  expect_span_eq(a.succ_idx, b.succ_idx, "succ_idx");
  expect_span_eq(a.roots, b.roots, "roots");

  // And it replays: every node computes, repeatedly, on pooled instances.
  for (int round = 0; round < 3; ++round) {
    api::Execution e = rt.run(*restored);
    EXPECT_EQ(e.status().state, api::ExecStatus::kCompleted) << round;
    EXPECT_EQ(e.nodes_computed(), restored->num_nodes()) << round;
  }
}

TEST(PlanBlob, TruncationAtEveryByteRejected) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0x7a0b, 48);
  for (std::size_t len = 0; len < c.blob.size(); ++len) {
    std::vector<std::uint8_t> cut(c.blob.begin(),
                                  c.blob.begin() + static_cast<long>(len));
    PlanBlobView view;
    const BlobError e = view.parse({cut.data(), cut.size()});
    ASSERT_NE(e, BlobError::kOk) << "accepted a " << len << "-byte prefix";
  }
}

TEST(PlanBlob, BitFlipAnywhereRejected) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xf11b, 48);
  for (std::size_t i = 0; i < c.blob.size(); ++i) {
    std::vector<std::uint8_t> bad = c.blob;
    bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    PlanBlobView view;
    const BlobError e = view.parse({bad.data(), bad.size()});
    ASSERT_NE(e, BlobError::kOk) << "accepted a flipped bit at byte " << i;
  }
}

TEST(PlanBlob, DistinctErrorsForEachRefusal) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xd157, 64);

  auto doctored = [&](auto&& mutate) {
    std::vector<std::uint8_t> bad = c.blob;
    PlanBlobHeader h;
    std::memcpy(&h, bad.data(), sizeof(h));
    mutate(h);
    std::memcpy(bad.data(), &h, sizeof(h));
    reseal_blob({bad.data(), bad.size()});  // internally consistent again
    PlanBlobView view;
    return view.parse({bad.data(), bad.size()});
  };

  EXPECT_EQ(doctored([](PlanBlobHeader& h) { h.magic[0] = 'X'; }),
            BlobError::kBadMagic);
  EXPECT_EQ(doctored([](PlanBlobHeader& h) {
              h.endian = __builtin_bswap32(h.endian);
            }),
            BlobError::kBadEndian);
  EXPECT_EQ(doctored([](PlanBlobHeader& h) { h.version += 1; }),
            BlobError::kBadVersion);
  EXPECT_EQ(doctored([](PlanBlobHeader& h) { h.abi ^= 0xff; }),
            BlobError::kBadAbi);
  EXPECT_EQ(doctored([](PlanBlobHeader& h) { h.flags |= 0x80; }),
            BlobError::kBadLayout);
  EXPECT_EQ(doctored([](PlanBlobHeader& h) { h.section_off[0] += 8; }),
            BlobError::kBadLayout);

  // A checksum error is a blob that was NOT resealed after damage.
  {
    std::vector<std::uint8_t> bad = c.blob;
    bad[sizeof(PlanBlobHeader) + 3] ^= 0x10;
    PlanBlobView view;
    EXPECT_EQ(view.parse({bad.data(), bad.size()}), BlobError::kBadChecksum);
  }
  // Truncation reports truncation even when the header is pristine.
  {
    std::vector<std::uint8_t> bad(c.blob.begin(), c.blob.end() - 7);
    PlanBlobView view;
    EXPECT_EQ(view.parse({bad.data(), bad.size()}), BlobError::kTruncated);
  }
  // Structural damage that survives resealing, one per persisted-array
  // invariant: `mutate` edits the body of a copy, which is then resealed.
  auto doctored_body = [&](auto&& mutate) {
    std::vector<std::uint8_t> bad = c.blob;
    PlanBlobHeader h;
    std::memcpy(&h, bad.data(), sizeof(h));
    mutate(bad.data(), h);
    reseal_blob({bad.data(), bad.size()});
    return bad;
  };
  // A predecessor index past the last node would make a replay (and the
  // schedule derivation) read out of bounds.
  {
    auto bad = doctored_body([&](std::uint8_t* b, const PlanBlobHeader& h) {
      const std::uint32_t past_end = c.plan->num_nodes();
      std::memcpy(b + h.section_off[kSecPredIdx], &past_end, sizeof(past_end));
    });
    PlanBlobView view;
    EXPECT_EQ(view.parse({bad.data(), bad.size()}), BlobError::kBadStructure);
  }
  // A duplicated key passes every per-array check; the key-table build
  // refuses it, so restore returns nullptr (the caller recompiles) instead
  // of serving a plan whose lookups alias two nodes.
  {
    auto bad = doctored_body([&](std::uint8_t* b, const PlanBlobHeader& h) {
      std::uint8_t* keys = b + h.section_off[kSecKeys];
      std::memcpy(keys + 2 * sizeof(Key), keys + sizeof(Key), sizeof(Key));
    });
    PlanBlobView view;
    ASSERT_EQ(view.parse({bad.data(), bad.size()}), BlobError::kOk);
    plan::FrozenPlan doctored = view.frozen(nullptr);
    plan::DerivedArrays d;
    EXPECT_FALSE(plan::derive_frozen(doctored, nullptr, d));
    net::RemoteGraphSpec spec2(c.g, rt.workers());
    EXPECT_EQ(rt.restore_plan(spec2, c.g.sink(), view.frozen(nullptr),
                              view.colored()),
              nullptr);
  }
  // Trailing junk (resealed, so checksums pass) is a layout error: the
  // recomputed section layout cannot account for the extra bytes.
  {
    std::vector<std::uint8_t> bad = c.blob;
    bad.insert(bad.end(), {0, 0, 0, 0, 0, 0, 0, 0});
    reseal_blob({bad.data(), bad.size()});
    PlanBlobView view;
    EXPECT_EQ(view.parse({bad.data(), bad.size()}), BlobError::kBadLayout);
  }
}

TEST(PlanBlob, EmptySpecBytesAllowed) {
  auto rt = make_runtime(Variant::kNabbit);
  // A generic (non-wire) plan can be persisted without spec bytes; the
  // format allows it, and the flags record the plain variant.
  CompiledBlob c = compile_blob(rt, 0x9e4e, 32);
  const auto blob = serialize_plan(*c.plan, {}, /*spec_hash=*/1);
  ParsedBlob p = parse_copy(blob);
  ASSERT_EQ(p.error, BlobError::kOk) << blob_error_name(p.error);
  EXPECT_TRUE(p.view.spec_bytes().empty());
  EXPECT_FALSE(p.view.colored());
}

// -------------------------------------------------------------- PlanRestore

TEST(PlanRestore, WrongGraphSpecRefused) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xaaaa, 64);
  ParsedBlob p = parse_copy(c.blob);
  ASSERT_EQ(p.error, BlobError::kOk);

  // Same node count, different topology: the artifact is internally valid
  // but describes a different graph than the spec — restore_plan must
  // refuse with nullptr (never abort), leaving the caller the recompile.
  net::WireGraph other = net::make_random_wire_graph(0xbbbb, 64);
  ASSERT_EQ(other.nodes.size(), c.g.nodes.size());
  net::RemoteGraphSpec spec2(other, rt.workers());
  EXPECT_EQ(rt.restore_plan(spec2, other.sink(), p.view.frozen(p.bytes),
                            p.view.colored()),
            nullptr);
}

TEST(PlanRestore, VariantMismatchRefused) {
  auto nc = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(nc, 0xcccc, 48);
  ParsedBlob p = parse_copy(c.blob);
  ASSERT_EQ(p.error, BlobError::kOk);
  ASSERT_TRUE(p.view.colored());

  // A colored artifact is stale for a kNabbit runtime: restore_plan refuses
  // it up front (before any instance building), caller recompiles.
  auto nb = make_runtime(Variant::kNabbit);
  net::WireGraph g2;
  ASSERT_TRUE(net::decode_register(p.view.spec_bytes(), g2, nullptr));
  net::RemoteGraphSpec spec2(g2, nb.workers());
  EXPECT_EQ(nb.restore_plan(spec2, g2.sink(), p.view.frozen(p.bytes),
                            p.view.colored()),
            nullptr);
}

// Colors are not persisted: RemoteGraphSpec folds wire colors into the
// serving runtime's worker count, so an artifact compiled at 4 workers and
// loaded at 2 must take its colors from the loading spec — a frozen color
// of 2 or 3 would name a worker that does not exist, and colored steals and
// the locality counts would be wrong for that half of the graph.
TEST(PlanRestore, ColorsFollowTheLoadingRuntime) {
  api::RuntimeOptions wide;
  wide.workers = 4;
  wide.variant = Variant::kNabbitC;
  api::Runtime rt4(wide);
  const net::WireGraph g = net::make_wavefront_wire_graph(32, 0xc010);
  const auto canon = canon_of(g);
  const std::uint64_t hash = content_hash({canon.data(), canon.size()});
  net::RemoteGraphSpec spec4(g, rt4.workers());
  auto plan4 = rt4.compile(spec4, g.sink());
  ParsedBlob p = parse_copy(
      serialize_plan(*plan4, {canon.data(), canon.size()}, hash));
  ASSERT_EQ(p.error, BlobError::kOk) << blob_error_name(p.error);

  auto rt2 = make_runtime(Variant::kNabbitC);
  ASSERT_EQ(rt2.workers(), 2u);
  net::RemoteGraphSpec spec2(g, 2);
  auto restored = rt2.restore_plan(spec2, g.sink(), p.view.frozen(p.bytes),
                                   p.view.colored());
  ASSERT_NE(restored, nullptr);
  std::uint32_t stale = 0;
  for (std::uint32_t i = 0; i < restored->num_nodes(); ++i) {
    const numa::Color want = spec2.color_of(restored->key_of(i));
    if (restored->color_of(i) != want || restored->color_of(i) >= 2) ++stale;
  }
  EXPECT_EQ(stale, 0u) << "of " << restored->num_nodes() << " nodes";

  auto fresh = rt2.compile(spec2, g.sink());
  api::Execution er = rt2.run(*restored);
  api::Execution ef = rt2.run(*fresh);
  ASSERT_EQ(er.status().state, api::ExecStatus::kCompleted);
  ASSERT_EQ(ef.status().state, api::ExecStatus::kCompleted);
  const auto* rs = static_cast<const net::ServeNode*>(er.find(g.sink()));
  const auto* fs = static_cast<const net::ServeNode*>(ef.find(g.sink()));
  ASSERT_NE(rs, nullptr);
  ASSERT_NE(fs, nullptr);
  EXPECT_EQ(rs->value, fs->value);
  EXPECT_EQ(rs->value, net::expected_sink_value(g));
}

// ---------------------------------------------------------------- MappedFile

TEST(MappedFile, MapsWritesBackExactBytesAndHandlesEmpty) {
  const std::string dir = make_temp_dir();
  const std::string path = dir + "/blob.bin";
  std::vector<std::uint8_t> data(4099);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(splitmix64(i) & 0xff);
  }
  std::string err;
  ASSERT_TRUE(write_file_atomic(path, {data.data(), data.size()}, &err)) << err;

  MappedFile f;
  ASSERT_TRUE(f.open(path, &err)) << err;
  ASSERT_EQ(f.bytes().size(), data.size());
  EXPECT_EQ(std::memcmp(f.bytes().data(), data.data(), data.size()), 0);

  // No .tmp-* litter after successful publication.
  for (const std::string& name : list_dir(dir)) {
    EXPECT_EQ(name.rfind(".tmp-", 0), std::string::npos) << name;
  }

  // Zero-length file: valid mapping, empty view, blob parse says truncated.
  const std::string empty_path = dir + "/empty.bin";
  ASSERT_TRUE(write_file_atomic(empty_path, {}, &err)) << err;
  MappedFile ef;
  ASSERT_TRUE(ef.open(empty_path, &err)) << err;
  EXPECT_TRUE(ef.valid());
  EXPECT_TRUE(ef.bytes().empty());
  PlanBlobView view;
  EXPECT_EQ(view.parse(ef.bytes()), BlobError::kTruncated);

  remove_dir_recursive(dir);
}

// ----------------------------------------------------------------- PlanCache

TEST(PlanCache, StoreLoadScanIgnoresForeignFiles) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xcafe, 64);

  const std::string dir = make_temp_dir();
  PlanCacheDir cache(dir);
  std::string err;
  ASSERT_TRUE(cache.ensure_dir(&err)) << err;

  // Miss before store.
  EXPECT_FALSE(cache.load(c.hash).hit());

  ASSERT_TRUE(cache.store(c.hash, {c.blob.data(), c.blob.size()}, &err)) << err;
  PlanCacheDir::Loaded got = cache.load(c.hash);
  ASSERT_TRUE(got.hit());
  EXPECT_EQ(got.view.spec_hash(), c.hash);
  EXPECT_EQ(got.view.num_nodes(), c.plan->num_nodes());

  // Foreign files neither scan nor break anything: a crashed writer's temp
  // file, a right-length wrong-hex name, an unrelated file.
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(write_file_atomic(dir + "/.tmp-leftover", {junk.data(), 3}, &err));
  ASSERT_TRUE(write_file_atomic(dir + "/plan-zzzzzzzzzzzzzzzz.nbpb",
                                {junk.data(), 3}, &err));
  ASSERT_TRUE(write_file_atomic(dir + "/notes.txt", {junk.data(), 3}, &err));
  const auto hashes = cache.scan();
  ASSERT_EQ(hashes.size(), 1u);
  EXPECT_EQ(hashes[0], c.hash);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.stored, 1u);
  EXPECT_GE(stats.mem_hits + stats.disk_hits, 1u);
  EXPECT_GE(stats.misses, 1u);

  remove_dir_recursive(dir);
}

TEST(PlanCache, RejectsCorruptFileAndRecovers) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0xdead, 64);

  const std::string dir = make_temp_dir();
  PlanCacheDir cache(dir);
  ASSERT_TRUE(cache.ensure_dir());

  // A garbage file under the right name: load refuses (counted), and a
  // subsequent store overwrites it cleanly — the upgrade path.
  std::vector<std::uint8_t> garbage(c.blob.size());
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(i * 37 + 1);
  }
  ASSERT_TRUE(write_file_atomic(cache.path_for(c.hash),
                                {garbage.data(), garbage.size()}));
  PlanCacheDir::Loaded bad = cache.load(c.hash);
  EXPECT_FALSE(bad.hit());
  EXPECT_NE(bad.error, BlobError::kOk);
  EXPECT_GE(cache.stats().rejected, 1u);

  ASSERT_TRUE(cache.store(c.hash, {c.blob.data(), c.blob.size()}));
  PlanCacheDir::Loaded good = cache.load(c.hash);
  ASSERT_TRUE(good.hit());
  EXPECT_EQ(good.view.spec_hash(), c.hash);

  // A blob stored under a LYING filename (different hash) is refused even
  // though it parses clean: the embedded spec bytes are the truth.
  const std::uint64_t lie = c.hash ^ 0x1234;
  ASSERT_TRUE(write_file_atomic(cache.path_for(lie),
                                {c.blob.data(), c.blob.size()}));
  PlanCacheDir::Loaded misfiled = cache.load(lie);
  EXPECT_FALSE(misfiled.hit());

  remove_dir_recursive(dir);
}

// Every older artifact (v1 predates the optimization passes, v2 stored the
// derived arrays, v3 carried a count-locality flag, v4 carried the fused-unit
// partition, v5 carried the pass mask in a 120-byte header) must be refused
// with the DISTINCT kBadVersion error — not a generic corruption refusal —
// and the cache upgrade path must transparently recompile over it. v3 is the
// sharp case: its count-locality bit (1u << 1, set in every blob a runtime
// wrote) is the bit v4 gave kPlanBlobFlagSerialLowered, so only the version
// gate stops a v3 blob being misread. The stamp sits at the same offset in
// every layout and the gate fires on it alone, so a doctored stamp exercises
// exactly the path a real old file takes.
TEST(PlanCache, StaleVersionBlobRejectedAndRecompiled) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob c = compile_blob(rt, 0x51a1e, 64);
  ASSERT_EQ(kPlanBlobVersion, 6u) << "add the new stale version's flags here";
  const std::string dir = make_temp_dir();

  for (std::uint32_t version = 1; version < kPlanBlobVersion; ++version) {
    SCOPED_TRACE(version);
    // A fresh cache per version, as after a daemon upgrade and restart.
    PlanCacheDir cache(dir);
    std::string err;
    ASSERT_TRUE(cache.ensure_dir(&err)) << err;
    std::vector<std::uint8_t> stale = c.blob;
    PlanBlobHeader h;
    std::memcpy(&h, stale.data(), sizeof(h));
    ASSERT_EQ(h.version, kPlanBlobVersion);
    h.version = version;
    if (version == 3) h.flags |= 1u << 1;  // v3's count-locality bit
    std::memcpy(stale.data(), &h, sizeof(h));
    reseal_blob({stale.data(), stale.size()});  // checksums pass; version gates

    PlanBlobView view;
    EXPECT_EQ(view.parse({stale.data(), stale.size()}), BlobError::kBadVersion);

    // Through the cache: a stale on-disk artifact is a miss that reports
    // kBadVersion, the recompiled blob overwrites it, and later loads hit.
    ASSERT_TRUE(write_file_atomic(cache.path_for(c.hash),
                                  {stale.data(), stale.size()}, &err))
        << err;
    PlanCacheDir::Loaded old = cache.load(c.hash);
    EXPECT_FALSE(old.hit());
    EXPECT_EQ(old.error, BlobError::kBadVersion);
    EXPECT_EQ(cache.stats().rejected, 1u);

    // The caller's recompile of the same spec publishes over the stale
    // file, is served from then on, and restores on this runtime.
    CompiledBlob recompiled = compile_blob(rt, 0x51a1e, 64);
    ASSERT_EQ(recompiled.hash, c.hash);
    ASSERT_TRUE(cache.store(c.hash,
                            {recompiled.blob.data(), recompiled.blob.size()},
                            &err))
        << err;
    PlanCacheDir::Loaded fresh = cache.load(c.hash);
    ASSERT_TRUE(fresh.hit());
    EXPECT_EQ(fresh.view.spec_hash(), c.hash);
    EXPECT_EQ(fresh.view.num_nodes(), c.plan->num_nodes());
    EXPECT_FALSE(fresh.view.frozen(fresh.file).serial_lower);
    EXPECT_EQ(cache.scan().size(), 1u);
    net::RemoteGraphSpec spec2(c.g, rt.workers());
    EXPECT_NE(rt.restore_plan(spec2, c.g.sink(), fresh.view.frozen(fresh.file),
                              fresh.view.colored()),
              nullptr);
  }

  remove_dir_recursive(dir);
}

TEST(PlanCache, PersistConcurrentStoreLoad) {
  auto rt = make_runtime(Variant::kNabbitC);
  CompiledBlob a = compile_blob(rt, 0xa001, 48);
  CompiledBlob b = compile_blob(rt, 0xb002, 48);

  const std::string dir = make_temp_dir();
  PlanCacheDir cache(dir);
  ASSERT_TRUE(cache.ensure_dir());

  // Writers republish both artifacts; readers load and occasionally forget.
  // Every observed hit must be a fully valid blob with the right identity —
  // rename-based publication means no reader can ever see a torn file.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> violations{0};
  auto writer = [&](const CompiledBlob* cb) {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!cache.store(cb->hash, {cb->blob.data(), cb->blob.size()})) {
        violations.fetch_add(1);
      }
    }
  };
  auto reader = [&](const CompiledBlob* cb, bool churn) {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      PlanCacheDir::Loaded got = cache.load(cb->hash);
      if (got.hit()) {
        if (got.view.spec_hash() != cb->hash ||
            got.view.num_nodes() != cb->plan->num_nodes()) {
          violations.fetch_add(1);
        }
      } else if (got.error != BlobError::kOk) {
        violations.fetch_add(1);  // a torn read would surface here
      }
      if (churn && (++i % 16) == 0) cache.forget(cb->hash);
    }
  };
  std::vector<std::thread> threads;
  threads.emplace_back(writer, &a);
  threads.emplace_back(writer, &b);
  threads.emplace_back(reader, &a, false);
  threads.emplace_back(reader, &b, true);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);

  remove_dir_recursive(dir);
}

}  // namespace
}  // namespace nabbitc::persist
