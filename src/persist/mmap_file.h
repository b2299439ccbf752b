// File mapping + atomic publication primitives for the plan cache.
//
// Two jobs, both boring on purpose:
//
//   * MappedFile — read-only mmap of a whole file, exposed as a byte span.
//     PlanBlobView's persisted arrays (keys, predecessor CSR) point
//     straight into it; only the schedule, key table and colors derived
//     from them are built in memory at load. mmap bases are
//     page-aligned, which satisfies the blob format's 8-byte alignment
//     requirement by construction.
//
//   * write_file_atomic — write-to-temp + fsync + rename publication.
//     rename(2) within one directory is atomic, so a reader (or a
//     concurrent writer racing to publish the same content-addressed name)
//     only ever observes a missing file or a complete one — never a torn
//     write. A crashed writer leaves a .tmp-* sibling the cache ignores.
//
// Everything reports errors by return value + message; nothing here aborts,
// because every caller has a fallback (recompile) that must stay reachable.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace nabbitc::persist {

/// Read-only memory mapping of an entire file. Move-only; unmaps on
/// destruction. A zero-length file maps to a valid empty span.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { reset(); }
  MappedFile(MappedFile&& o) noexcept { swap(o); }
  MappedFile& operator=(MappedFile&& o) noexcept {
    if (this != &o) {
      reset();
      swap(o);
    }
    return *this;
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `path` read-only. On failure returns false, leaves the object
  /// empty, and (if err != nullptr) describes what went wrong.
  bool open(const std::string& path, std::string* err = nullptr);

  /// Unmaps; the object is reusable afterwards.
  void reset() noexcept;

  bool valid() const noexcept { return data_ != nullptr || empty_ok_; }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }

 private:
  void swap(MappedFile& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    std::swap(empty_ok_, o.empty_ok_);
  }

  void* data_ = nullptr;
  std::size_t size_ = 0;
  bool empty_ok_ = false;  // successfully "mapped" a zero-length file
};

/// Atomically publishes `bytes` at `path`: writes a .tmp-* sibling in the
/// same directory, fsyncs it, rename(2)s it into place, and best-effort
/// fsyncs the directory. On failure the temp file is unlinked and `path`
/// is untouched (either absent or still holding its previous content).
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string* err = nullptr);

/// mkdir -p for exactly one level: creates `dir` if absent; an existing
/// directory is success.
bool ensure_dir(const std::string& dir, std::string* err = nullptr);

/// Regular-file names (not paths) directly inside `dir`, unsorted.
/// A missing/unreadable directory yields an empty list.
std::vector<std::string> list_dir(const std::string& dir);

bool file_exists(const std::string& path);
bool remove_file(const std::string& path);

}  // namespace nabbitc::persist
