#include "numa/pinning.h"

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace nabbitc::numa {

std::uint32_t visible_cpus() noexcept {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1u : n;
}

bool pin_current_thread(std::uint32_t core) noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % visible_cpus(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

bool place_current_thread(std::uint32_t slot) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  if (pthread_getaffinity_np(pthread_self(), sizeof(allowed), &allowed) != 0) {
    return false;
  }
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return false;
  int rank = static_cast<int>(slot % static_cast<std::uint32_t>(n));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && rank-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  // Narrowing the mask migrates the thread now; widening it again leaves
  // the thread where it is until the kernel has a reason to move it.
  const bool moved = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  const bool restored =
      pthread_setaffinity_np(pthread_self(), sizeof(allowed), &allowed) == 0;
  return moved && restored;
#else
  (void)slot;
  return false;
#endif
}

}  // namespace nabbitc::numa
