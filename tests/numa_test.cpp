// Unit tests for src/numa: topology, distribution, penalty, pinning.
#include <gtest/gtest.h>

#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "numa/distribution.h"
#include "numa/penalty.h"
#include "numa/pinning.h"
#include "numa/topology.h"

namespace nabbitc::numa {
namespace {

// ---------------------------------------------------------------- topology

TEST(Topology, PaperMachine) {
  Topology t = Topology::paper();
  EXPECT_EQ(t.domains(), 8u);
  EXPECT_EQ(t.cores_per_domain(), 10u);
  EXPECT_EQ(t.total_cores(), 80u);
}

TEST(Topology, DomainOfCoreIsDomainMajor) {
  Topology t(4, 3);  // 12 cores
  EXPECT_EQ(t.domain_of_core(0), 0u);
  EXPECT_EQ(t.domain_of_core(2), 0u);
  EXPECT_EQ(t.domain_of_core(3), 1u);
  EXPECT_EQ(t.domain_of_core(11), 3u);
  EXPECT_EQ(t.domain_of_core(12), 0u);  // wraps
}

TEST(Topology, WorkerMapping) {
  Topology t(2, 2);
  EXPECT_EQ(t.core_of_worker(0), 0u);
  EXPECT_EQ(t.core_of_worker(3), 3u);
  EXPECT_EQ(t.core_of_worker(4), 0u);  // oversubscribed wraps
  EXPECT_EQ(t.domain_of_worker(2), 1u);
}

TEST(Topology, InvalidColorIsNowhereLocal) {
  Topology t(4, 10);
  for (std::uint32_t w = 0; w < 40; ++w) {
    EXPECT_FALSE(t.is_local(kInvalidColor, w));
  }
  EXPECT_EQ(t.domain_of_color(kInvalidColor), t.domains());
}

TEST(Topology, LocalityWithinDomain) {
  Topology t = Topology::paper();
  // Workers 0..9 share domain 0; color 5 is local to all of them.
  for (std::uint32_t w = 0; w < 10; ++w) EXPECT_TRUE(t.is_local(5, w));
  // ...and remote to everyone else.
  for (std::uint32_t w = 10; w < 80; ++w) EXPECT_FALSE(t.is_local(5, w));
}

TEST(Topology, UniformHasNoRemote) {
  Topology t = Topology::uniform(16);
  for (std::uint32_t w = 0; w < 16; ++w) {
    for (Color c = 0; c < 16; ++c) EXPECT_TRUE(t.is_local(c, w));
  }
}

TEST(Topology, HostIsSingleDomain) {
  Topology t = Topology::host();
  EXPECT_EQ(t.domains(), 1u);
  EXPECT_GE(t.total_cores(), 1u);
}

TEST(Topology, Describe) {
  EXPECT_EQ(Topology(2, 3).describe(), "2 domain(s) x 3 core(s) = 6 cores");
}

TEST(TopologyDeath, RejectsZeroDomains) {
  EXPECT_DEATH(Topology(0, 4), "domain");
}

// ------------------------------------------------------------ distribution

TEST(BlockDistribution, EvenSplit) {
  BlockDistribution d(100, 4);
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(24), 0);
  EXPECT_EQ(d.owner(25), 1);
  EXPECT_EQ(d.owner(99), 3);
  EXPECT_EQ(d.begin_of(1), 25u);
  EXPECT_EQ(d.end_of(1), 50u);
}

TEST(BlockDistribution, UnevenSplitCeilChunks) {
  BlockDistribution d(10, 4);  // chunk = 3: 3,3,3,1
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(2), 0);
  EXPECT_EQ(d.owner(3), 1);
  EXPECT_EQ(d.owner(9), 3);
  EXPECT_EQ(d.end_of(3), 10u);
}

TEST(BlockDistribution, MoreColorsThanItems) {
  BlockDistribution d(3, 8);  // chunk = 1
  EXPECT_EQ(d.owner(0), 0);
  EXPECT_EQ(d.owner(2), 2);
  EXPECT_TRUE(d.begin_of(5) >= d.end_of(5));  // empty trailing colors
}

TEST(BlockDistribution, OwnersAreMonotone) {
  BlockDistribution d(1000, 7);
  Color prev = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Color c = d.owner(i);
    EXPECT_GE(c, prev);
    EXPECT_LT(c, 7);
    prev = c;
  }
}

TEST(BlockDistribution, MajorityOwner) {
  BlockDistribution d(100, 4);  // chunks of 25
  EXPECT_EQ(d.majority_owner(0, 25), 0);
  EXPECT_EQ(d.majority_owner(20, 30), 0);   // 5/5 tie resolves to first run
  EXPECT_EQ(d.majority_owner(20, 60), 1);   // 5 + 25 + 10
  EXPECT_EQ(d.majority_owner(98, 100), 3);
}

TEST(BlockDistribution, OwnershipPartitionsIndexSpace) {
  BlockDistribution d(777, 13);
  std::uint64_t covered = 0;
  for (Color c = 0; c < 13; ++c) {
    EXPECT_LE(d.begin_of(c), d.end_of(c));
    covered += d.end_of(c) - d.begin_of(c);
    for (auto i = d.begin_of(c); i < d.end_of(c); ++i) EXPECT_EQ(d.owner(i), c);
  }
  EXPECT_EQ(covered, 777u);
}

// ----------------------------------------------------------------- penalty

TEST(Penalty, NodeCost) {
  PenaltyModel p;
  p.remote_factor = 2.0;
  EXPECT_DOUBLE_EQ(p.node_cost(10.0, false), 10.0);
  EXPECT_DOUBLE_EQ(p.node_cost(10.0, true), 20.0);
}

TEST(Penalty, LocalityCountersPercent) {
  LocalityCounters c;
  EXPECT_DOUBLE_EQ(c.percent_remote(), 0.0);
  c.nodes = 8;
  c.remote_nodes = 2;
  c.pred_accesses = 12;
  c.remote_pred_accesses = 3;
  EXPECT_EQ(c.total_accesses(), 20u);
  EXPECT_EQ(c.remote_accesses(), 5u);
  EXPECT_DOUBLE_EQ(c.percent_remote(), 25.0);
}

TEST(Penalty, LocalityCountersMerge) {
  LocalityCounters a, b;
  a.nodes = 1;
  a.remote_nodes = 1;
  b.nodes = 3;
  b.pred_accesses = 4;
  a.merge(b);
  EXPECT_EQ(a.nodes, 4u);
  EXPECT_EQ(a.remote_nodes, 1u);
  EXPECT_EQ(a.pred_accesses, 4u);
}

TEST(Penalty, BusyDelayZeroIsNoop) {
  busy_delay_ns(0);  // must not hang
  SUCCEED();
}

// ----------------------------------------------------------------- pinning

TEST(Pinning, VisibleCpusPositive) { EXPECT_GE(visible_cpus(), 1u); }

TEST(Pinning, PinDoesNotCrash) {
  // May fail in restricted containers; must not crash either way.
  (void)pin_current_thread(0);
  SUCCEED();
}

#if defined(__linux__)
TEST(Pinning, PlaceLeavesAffinityMaskAsItWas) {
  // On a thread of its own, so no other test inherits a changed mask.
  std::thread t([] {
    cpu_set_t before;
    cpu_set_t after;
    ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(before), &before), 0);
    for (std::uint32_t slot = 0; slot < 5; ++slot) {
      const bool placed = place_current_thread(slot);
      if (CPU_COUNT(&before) == 1) {
        EXPECT_FALSE(placed);
      }
      ASSERT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(after), &after), 0);
      EXPECT_TRUE(CPU_EQUAL(&before, &after)) << "slot " << slot;
    }
  });
  t.join();
}
#endif

}  // namespace
}  // namespace nabbitc::numa
