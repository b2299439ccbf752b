// NabbitC: the locality-aware dynamic executor.
//
// ColoredDynamicExecutor overrides the spawn hooks of its Nabbit base class
// with the morphing-continuation mechanism of spawn_colors.h, and advertises
// color masks on every stealable frame so the runtime's colored steals
// (rt/steal_policy.h) can find same-colored work. Fully-known graphs get the
// same colored spawn through compiled-plan replay (plan/plan.h).
// The dependence protocol — and therefore correctness — is entirely
// inherited; NabbitC only changes *order* and *steal visibility*, exactly as
// the paper prescribes.
#pragma once

#include "nabbit/executor.h"
#include "nabbitc/coloring.h"
#include "nabbitc/spawn_colors.h"

namespace nabbitc::nabbit {

class ColoredDynamicExecutor final : public DynamicExecutor {
 public:
  using DynamicExecutor::DynamicExecutor;

 protected:
  void spawn_preds(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode* parent,
                   PredItem* items, std::size_t n) override;
  void spawn_ready(rt::Worker& w, rt::TaskGroup& g, TaskGraphNode** ready,
                   std::size_t n) override;
};

// Variant selection lives one layer up: api::Runtime derives both the
// steal policy and the executor class (this or its Nabbit base) from
// the single api::Variant, so a policy/executor mismatch cannot be wired.

}  // namespace nabbitc::nabbit
