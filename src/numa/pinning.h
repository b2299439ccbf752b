// Best-effort thread pinning.
//
// The paper pins one worker per core. In this container pinning may fail or
// be a no-op (1 visible CPU); the scheduler treats pinning as advisory and
// all correctness is independent of it.
#pragma once

#include <cstdint>

namespace nabbitc::numa {

/// Pins the calling thread to `core` (mod the number of visible CPUs).
/// Returns true on success, false if unsupported or denied.
bool pin_current_thread(std::uint32_t core) noexcept;

/// Moves the calling thread onto the `slot`-th CPU of its affinity mask
/// (mod the mask's size), then restores the mask: a starting place, not a
/// pin. Returns true if the thread was moved and its mask restored; false
/// if the mask allows one CPU only, or the calls are unsupported or denied.
bool place_current_thread(std::uint32_t slot) noexcept;

/// Number of CPUs visible to this process (>= 1).
std::uint32_t visible_cpus() noexcept;

}  // namespace nabbitc::numa
