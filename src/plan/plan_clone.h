#ifndef RELGO_PLAN_PLAN_CLONE_H_
#define RELGO_PLAN_PLAN_CLONE_H_

#include <functional>

#include "plan/physical_plan.h"

namespace relgo {
namespace plan {

/// Transform applied to every expression slot while cloning a plan.
/// Receives a non-null source expression and returns the expression for
/// the copy (typically `e->Clone()` with some constants substituted).
/// Null expression slots are copied as null without calling the transform.
using ExprTransform = std::function<storage::ExprPtr(const storage::ExprPtr&)>;

/// Deep-copies a physical plan tree, applying `transform` to every
/// expression the plan carries (scan filters, join residuals, vertex/edge
/// predicates, and the pattern constraints inside kNaiveMatch). Estimator
/// annotations (estimated_cardinality, estimated_cost) are copied
/// verbatim. The plan cache uses this to rebind a cached template plan
/// against a new set of constants without mutating the cached tree.
PhysicalOpPtr ClonePlan(const PhysicalOp& op, const ExprTransform& transform);

/// Plain deep copy: every expression is cloned unchanged.
PhysicalOpPtr ClonePlan(const PhysicalOp& op);

}  // namespace plan
}  // namespace relgo

#endif  // RELGO_PLAN_PLAN_CLONE_H_
