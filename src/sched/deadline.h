// Deadline tier configuration: per-type completion budgets the scheduler
// enforces. A DeadlineConfig names per-type targets — either an absolute budget
// or a slowdown multiple of the type's expected mean — which the engines
// resolve to absolute `Request::deadline` stamps at ingress. The stamps feed
// three consumers: the EDF dispatch order (PolicyMode::kEdf), the slack-aware
// DARC reservation (PolicyMode::kDarcSlack), and the admission-control shed
// predicate (src/sched/admission.h).
//
// Clients can override the per-type target per request by carrying a budget
// on the wire (PspHeader::deadline_us); the ingress stamp then uses the wire
// value and the config is the fallback.
#ifndef PSP_SRC_SCHED_DEADLINE_H_
#define PSP_SRC_SCHED_DEADLINE_H_

#include <string>
#include <vector>

#include "src/common/time.h"

namespace psp {

// One per-type deadline target, matched to scheduler types by *name* (the
// human-stable key across both engines).
// Exactly one of {budget, slowdown} should be set: an absolute budget wins;
// otherwise the budget is slowdown × the type's expected mean service time.
struct DeadlineTarget {
  std::string type_name;
  Nanos budget = 0;      // absolute budget from arrival; 0 = derive
  double slowdown = 0;   // budget = slowdown * expected mean when budget == 0
};

struct DeadlineConfig {
  std::vector<DeadlineTarget> targets;  // empty + default off = tier disabled
  // Types without an explicit target get default_slowdown × expected mean as
  // their budget; 0 means untargeted types carry no deadline.
  double default_slowdown = 0;
  // Admission control: when true, requests whose predicted completion
  // (src/sched/admission.h) exceeds their deadline are shed at enqueue.
  bool shed = false;
  // Inflates the predicted completion before comparing against the deadline;
  // >1 sheds earlier (conservative), <1 sheds later (optimistic).
  double shed_safety = 1.0;

  // True when any stamping rule exists — the engines skip all deadline work
  // otherwise, so the tier is pay-for-what-you-use.
  bool enabled() const { return !targets.empty() || default_slowdown > 0; }

  // Resolves the budget for a type: explicit target first (absolute budget
  // wins over slowdown), then default_slowdown. 0 = no deadline.
  Nanos BudgetFor(const std::string& type_name, Nanos expected_mean) const;

  // Empty string = valid; otherwise a description of the misconfiguration
  // (duplicate type names, non-positive budgets/slowdowns, bad safety).
  std::string Validate() const;
};

}  // namespace psp

#endif  // PSP_SRC_SCHED_DEADLINE_H_
