// nabbitc-planc: offline PlanBlob inspector.
//
// The plan cache is a directory of opaque binary artifacts; when a warm
// start doesn't behave (plans_compiled != 0 after a restart), the operator
// needs to see WHY a blob was refused without attaching a debugger to the
// daemon. This tool runs the exact parser the server runs (persist/
// plan_blob.h) and the schedule derivation restore runs
// (plan::derive_frozen), reports the exact BlobError, and prints
// human-readable header and topology dumps. Colors are not shown: they are
// not in the blob, but derived from the loading runtime's spec.
//
//   nabbitc-planc validate FILE...   parse each blob, print verdicts
//   nabbitc-planc info FILE...       validate + header/graph summary
//   nabbitc-planc dump FILE          info + per-node topology + schedule
//   nabbitc-planc ls DIR             validate every plan-*.nbpb in a cache dir
//
// Exit status: 0 = every inspected blob parsed clean, 1 = at least one was
// refused (the verdict lines say why), 2 = usage error.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "persist/mmap_file.h"
#include "persist/plan_blob.h"
#include "persist/plan_cache.h"
#include "support/hash.h"

namespace {

using namespace nabbitc;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s validate FILE...\n"
               "       %s info FILE...\n"
               "       %s dump FILE\n"
               "       %s ls DIR\n",
               argv0, argv0, argv0, argv0);
  return 2;
}

/// Maps + parses one blob and derives its schedule into `f`/`d`. Returns
/// true iff both succeeded; always prints a one-line verdict.
bool inspect(const std::string& path, persist::MappedFile& file,
             persist::PlanBlobView& view, plan::FrozenPlan& f,
             plan::DerivedArrays& d) {
  std::string err;
  if (!file.open(path, &err)) {
    // An unreadable file is an operational error, not a parse verdict:
    // stderr, so `planc ls DIR | grep` pipelines see only blob verdicts.
    std::fprintf(stderr, "%-16s %s\n", "unreadable", err.c_str());
    return false;
  }
  const persist::BlobError e = view.parse(file.bytes());
  if (e != persist::BlobError::kOk) {
    std::printf("%-16s %s (%zu bytes)\n", persist::blob_error_name(e),
                path.c_str(), file.bytes().size());
    return false;
  }
  // Borrowed views are fine here: the MappedFile outlives the caller's use.
  f = view.frozen(nullptr);
  if (!plan::derive_frozen(f, nullptr, d)) {
    std::printf("%-16s %s (duplicate key)\n",
                persist::blob_error_name(persist::BlobError::kBadStructure),
                path.c_str());
    return false;
  }
  std::printf("%-16s %s\n", "ok", path.c_str());
  return true;
}

void print_info(const persist::PlanBlobView& view, const plan::FrozenPlan& f) {
  const persist::PlanBlobHeader& h = view.header();
  std::printf("  version=%u abi=0x%06x flags=%s%s\n", h.version, h.abi,
              view.colored() ? "colored" : "plain",
              (h.flags & persist::kPlanBlobFlagSerialLowered) != 0
                  ? "+serial-lowered"
                  : "");
  std::printf("  spec_hash=%016" PRIx64 " total_bytes=%" PRIu64 "\n",
              h.spec_hash, h.total_bytes);
  std::printf("  nodes=%u edges=%u sink_key=%" PRIu64 " slab_bytes=%" PRIu64
              "\n",
              h.n, h.n_edges, h.sink_key, h.instance_slab_bytes);
  std::printf("  roots=%zu\n", f.roots.size());
  const auto spec = view.spec_bytes();
  if (spec.empty()) {
    std::printf("  spec: (none — generic blob, functions not re-bindable)\n");
    return;
  }
  const bool hash_ok = content_hash(spec) == h.spec_hash;
  net::WireGraph g;
  std::string derr;
  if (!net::decode_register(spec, g, &derr)) {
    std::printf("  spec: %zu bytes, hash %s, UNDECODABLE: %s\n", spec.size(),
                hash_ok ? "ok" : "MISMATCH", derr.c_str());
    return;
  }
  std::printf("  spec: %zu bytes, hash %s, wire graph: %zu nodes, seed=%" PRIu64
              ", spin=%uns\n",
              spec.size(), hash_ok ? "ok" : "MISMATCH", g.nodes.size(), g.seed,
              g.node_spin_ns);
}

void print_dump(const plan::FrozenPlan& f) {
  for (std::uint32_t i = 0; i < f.n; ++i) {
    std::printf("  node %u: key=%" PRIu64 " join=%d preds=[", i, f.keys[i],
                f.join[i]);
    for (std::uint32_t e = f.pred_off[i]; e < f.pred_off[i + 1]; ++e) {
      std::printf("%s%u", e == f.pred_off[i] ? "" : " ", f.pred_idx[e]);
    }
    std::printf("] succs=[");
    for (std::uint32_t e = f.succ_off[i]; e < f.succ_off[i + 1]; ++e) {
      std::printf("%s%u", e == f.succ_off[i] ? "" : " ", f.succ_idx[e]);
    }
    std::printf("]\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];

  std::vector<std::string> paths;
  if (cmd == "ls") {
    if (argc != 3) return usage(argv[0]);
    persist::PlanCacheDir cache(argv[2]);
    for (const std::uint64_t h : cache.scan()) {
      paths.push_back(cache.path_for(h));
    }
    if (paths.empty()) {
      std::printf("no plan blobs in %s\n", argv[2]);
      return 0;
    }
  } else if (cmd == "validate" || cmd == "info" || cmd == "dump") {
    if (cmd == "dump" && argc != 3) return usage(argv[0]);
    for (int i = 2; i < argc; ++i) paths.emplace_back(argv[i]);
  } else {
    return usage(argv[0]);
  }

  int bad = 0;
  for (const std::string& path : paths) {
    persist::MappedFile file;
    persist::PlanBlobView view;
    plan::FrozenPlan f;
    plan::DerivedArrays d;
    if (!inspect(path, file, view, f, d)) {
      ++bad;
      continue;
    }
    if (cmd == "info" || cmd == "dump") print_info(view, f);
    if (cmd == "dump") print_dump(f);
  }
  return bad == 0 ? 0 : 1;
}
