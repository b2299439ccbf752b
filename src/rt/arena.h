// Per-worker bump allocator for task frames, segmented by submission epoch.
//
// Task objects must stay mapped for the whole job even after execution:
// thieves *peek* at a victim's top deque entry (pointer + color mask) before
// committing a colored steal, and that peek may race with the owner popping
// and recycling the slot. All frames therefore come from block-granular
// arenas whose blocks are never unmapped — a stale peek reads stale-but-
// mapped bytes: it can only mis-predict a steal's color match (benign: the
// claiming CAS decides ownership), never fault.
//
// Lifetime accounting is *epoch-segmented*: every block carries a stamp, the
// maximum frame epoch (the scheduler's per-RootJob submission number) that
// ever allocated into it. A frame is only referenced while its job runs, so
// once every job with epoch <= stamp has finished, every frame in the block
// is garbage and the block can be recycled — even while OTHER jobs are still
// in flight. This is what keeps continuous overlapping submission patterns
// (a server that never lets the pool drain) at bounded memory; the old
// design only rewound at full pool quiescence, which such clients never
// reach (the since-closed ROADMAP item). reset() remains the cheap
// everything-at-once rewind for the quiescent moment.
//
// The watermark ("every job with epoch <= E finished") is conservative: one
// long-running submission defers reclamation of every younger job's frames
// until it completes, so memory during such a stall is bounded by the
// stall-window churn rather than the live-frame footprint. That still
// strictly improves on the old contract, where ANY sustained overlap
// deferred reclamation forever.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "support/align.h"
#include "support/check.h"

namespace nabbitc::rt {

class JobArena {
 public:
  /// Maps the first block up front: a worker's first frame never
  /// heap-allocates, however late in a run its first steal comes.
  explicit JobArena(std::size_t block_bytes = 1 << 16) : block_bytes_(block_bytes) {
    free_.push_back(map_block());
  }

  JobArena(const JobArena&) = delete;
  JobArena& operator=(const JobArena&) = delete;

  /// Allocates raw storage; never freed individually. Stamps the current
  /// block with the arena's frame epoch (see set_epoch).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    NABBITC_CHECK_MSG(bytes <= block_bytes_, "allocation larger than arena block");
    // A newer job's first frame in a block whose every frame is dead
    // restarts the block, so back-to-back jobs reuse it even when this
    // worker never parked (and so never rewound) in between.
    if (current_ != nullptr && epoch_ > blocks_[live_.back()].stamp &&
        completed_upto_ != nullptr &&
        blocks_[live_.back()].stamp <=
            completed_upto_->load(std::memory_order_acquire)) {
      offset_ = 0;
    }
    std::size_t off = round_up(offset_, align);
    if (current_ == nullptr || off + bytes > block_bytes_) {
      advance_block();
      off = 0;
    }
    Block& b = blocks_[live_.back()];
    if (epoch_ > b.stamp) b.stamp = epoch_;
    void* p = current_ + off;
    offset_ = off + bytes;
    return p;
  }

  /// Constructs a trivially destructible T in the arena.
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena objects are never destroyed; only trivially "
                  "destructible types are allowed");
    return ::new (allocate(sizeof(T), alignof(T))) T(std::forward<Args>(args)...);
  }

  /// Constructs an uninitialized array of trivially destructible T.
  template <typename T>
  T* create_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>);
    return static_cast<T*>(allocate(sizeof(T) * n, alignof(T)));
  }

  // --- epoch segmentation ---------------------------------------------------

  /// Frame epoch subsequent allocations belong to: the submission number of
  /// the job whose task is currently executing. The scheduler sets this
  /// before running every task (and restores it around nested helping).
  void set_epoch(std::uint64_t e) noexcept { epoch_ = e; }
  std::uint64_t epoch() const noexcept { return epoch_; }

  /// Binds the scheduler's reclamation watermark: the largest epoch E such
  /// that every job with epoch <= E has finished. Blocks whose stamp is at
  /// or below the watermark hold only dead frames and are recycled by
  /// advance_block instead of growing the arena.
  void bind_reclaim(const std::atomic<std::uint64_t>* completed_upto) noexcept {
    completed_upto_ = completed_upto;
  }

  /// Rewinds the whole arena, keeping blocks mapped for reuse. Only call
  /// when no live frame can exist anywhere (pool quiescence).
  void reset() noexcept {
    for (std::uint32_t idx : live_) {
      blocks_[idx].stamp = 0;
      free_.push_back(idx);
    }
    live_.clear();
    current_ = nullptr;
    offset_ = 0;
  }

  std::size_t blocks_allocated() const noexcept { return blocks_.size(); }

  /// Bytes of block storage this arena holds (mapped high-watermark, not
  /// live-frame bytes). Safe to read from any thread.
  std::size_t bytes_held() const noexcept {
    return bytes_held_.load(std::memory_order_relaxed);
  }

  /// Bytes of opened blocks stamped above `completed_upto` (the reclamation
  /// watermark): storage some unfinished job may still reference. Reads
  /// owner-thread state — only while the owning worker is parked.
  std::size_t live_bytes(std::uint64_t completed_upto) const noexcept {
    std::size_t n = 0;
    for (std::uint32_t idx : live_) {
      if (blocks_[idx].stamp > completed_upto) n += block_bytes_;
    }
    return n;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    /// Max frame epoch that allocated into this block; 0 = untouched.
    std::uint64_t stamp = 0;
  };

  void advance_block() {
    // First recycle: any opened block whose every allocating job has
    // finished (stamp <= watermark) is garbage, including a full current
    // block. This is the step that bounds memory under continuous overlap.
    if (completed_upto_ != nullptr && !live_.empty()) {
      const std::uint64_t done = completed_upto_->load(std::memory_order_acquire);
      std::size_t keep = 0;
      for (std::size_t i = 0; i < live_.size(); ++i) {
        Block& b = blocks_[live_[i]];
        if (b.stamp <= done) {
          b.stamp = 0;
          free_.push_back(live_[i]);  // capacity reserved; never allocates
        } else {
          live_[keep++] = live_[i];
        }
      }
      live_.resize(keep);
    }
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = map_block();
    }
    live_.push_back(idx);
    current_ = blocks_[idx].mem.get();
    offset_ = 0;
  }

  /// Maps one more block and returns its index (not yet on either list).
  std::uint32_t map_block() {
    blocks_.push_back(Block{std::make_unique<std::byte[]>(block_bytes_), 0});
    bytes_held_.store(blocks_.size() * block_bytes_, std::memory_order_relaxed);
    // Keep the index lists' capacity >= block count so the hot-path moves
    // between live_ and free_ never heap-allocate.
    live_.reserve(blocks_.size());
    free_.reserve(blocks_.size());
    return static_cast<std::uint32_t>(blocks_.size() - 1);
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;          // all blocks ever mapped (stable indices)
  std::vector<std::uint32_t> live_;    // opened blocks, in open order; back() is current
  std::vector<std::uint32_t> free_;    // recyclable blocks
  std::byte* current_ = nullptr;
  std::size_t offset_ = 0;
  std::uint64_t epoch_ = 0;
  const std::atomic<std::uint64_t>* completed_upto_ = nullptr;
  std::atomic<std::size_t> bytes_held_{0};
};

}  // namespace nabbitc::rt
