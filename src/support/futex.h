// Futex wait/wake on a 32-bit atomic word (Linux). Not std::atomic::wait:
// it has no timeout, and libstdc++'s notify consults a process-wide waiter
// table, so an unrelated waiter in the same slot costs notifiers a syscall.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <ctime>

namespace nabbitc {

/// Sleeps while `word` holds `expected`, until woken or, when `deadline_ns`
/// != 0, until that absolute CLOCK_MONOTONIC time (now_ns()'s clock). May
/// return spuriously: callers re-check their word.
inline void futex_wait(const std::atomic<std::uint32_t>& word,
                       std::uint32_t expected,
                       std::uint64_t deadline_ns) noexcept {
  static_assert(sizeof(word) == sizeof(std::uint32_t));
  if (deadline_ns == 0) {
    ::syscall(SYS_futex, &word, FUTEX_WAIT_PRIVATE, expected, nullptr);
    return;
  }
  const timespec ts{static_cast<time_t>(deadline_ns / 1'000'000'000u),
                    static_cast<long>(deadline_ns % 1'000'000'000u)};
  ::syscall(SYS_futex, &word, FUTEX_WAIT_BITSET_PRIVATE, expected, &ts,
            nullptr, FUTEX_BITSET_MATCH_ANY);
}

/// Wakes every thread asleep on the futex word at `word`. Only the address
/// reaches the kernel, so the memory behind it may already be freed.
inline void futex_wake_all(const void* word) noexcept {
  ::syscall(SYS_futex, word, FUTEX_WAKE_PRIVATE, INT_MAX);
}

}  // namespace nabbitc
