#include "src/sched/deadline.h"

#include <cmath>
#include <set>

namespace psp {

Nanos DeadlineConfig::BudgetFor(const std::string& type_name,
                                Nanos expected_mean) const {
  for (const DeadlineTarget& t : targets) {
    if (t.type_name == type_name) {
      if (t.budget > 0) {
        return t.budget;
      }
      if (t.slowdown > 0 && expected_mean > 0) {
        return static_cast<Nanos>(
            std::llround(t.slowdown * static_cast<double>(expected_mean)));
      }
      return 0;
    }
  }
  if (default_slowdown > 0 && expected_mean > 0) {
    return static_cast<Nanos>(
        std::llround(default_slowdown * static_cast<double>(expected_mean)));
  }
  return 0;
}

std::string DeadlineConfig::Validate() const {
  std::set<std::string> seen;
  for (const DeadlineTarget& t : targets) {
    if (t.type_name.empty()) {
      return "deadline target with empty type name";
    }
    if (!seen.insert(t.type_name).second) {
      return "duplicate deadline target for type \"" + t.type_name + "\"";
    }
    if (t.budget < 0) {
      return "negative deadline budget for type \"" + t.type_name + "\"";
    }
    if (t.slowdown < 0 || !std::isfinite(t.slowdown)) {
      return "bad deadline slowdown for type \"" + t.type_name + "\"";
    }
    if (t.budget == 0 && t.slowdown == 0) {
      return "deadline target for type \"" + t.type_name +
             "\" sets neither budget nor slowdown";
    }
  }
  if (default_slowdown < 0 || !std::isfinite(default_slowdown)) {
    return "bad deadline default_slowdown";
  }
  if (shed_safety <= 0 || !std::isfinite(shed_safety)) {
    return "shed_safety must be positive";
  }
  return "";
}

}  // namespace psp
