#include "src/telemetry/slo.h"

#include <cstdio>

#include "src/common/json_escape.h"
#include "src/telemetry/timeseries.h"

namespace psp {

std::string SloConfig::Validate() const {
  if (targets.empty()) {
    return "";
  }
  for (const SloTarget& t : targets) {
    if (t.type_name.empty()) {
      return "slo: target type_name must not be empty";
    }
    if (t.slowdown <= 0) {
      return "slo: target slowdown must be > 0";
    }
    if (t.budget_fraction <= 0 || t.budget_fraction > 1.0) {
      return "slo: budget_fraction must be in (0, 1]";
    }
  }
  if (window_intervals == 0) {
    return "slo: window_intervals must be > 0";
  }
  if (burn_rate_alert <= 0) {
    return "slo: burn_rate_alert must be > 0";
  }
  if (!flight_path.empty() && flight_intervals == 0) {
    return "slo: flight_intervals must be > 0 when flight_path is set";
  }
  return "";
}

SloMonitor::SloMonitor(SloConfig config) : config_(std::move(config)) {
  targets_.reserve(config_.targets.size());
  for (const SloTarget& t : config_.targets) {
    TargetState state;
    state.target = t;
    targets_.push_back(std::move(state));
  }
}

double SloMonitor::TargetSlowdownFor(const std::string& type_name) const {
  for (const TargetState& state : targets_) {
    if (state.target.type_name == type_name) {
      return state.target.slowdown;
    }
  }
  return 0;
}

std::string SloMonitor::SetSlowdown(const std::string& type_name,
                                    double slowdown) {
  if (slowdown <= 1.0) {
    return "slo: slowdown target must be > 1.0";
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (TargetState& state : targets_) {
    if (state.target.type_name == type_name) {
      state.target.slowdown = slowdown;
      return "";
    }
  }
  return "slo: no target for type \"" + type_name + "\"";
}

std::vector<SloAlert> SloMonitor::OnInterval(
    const IntervalRecord& interval,
    const std::map<uint32_t, std::string>& names) {
  std::vector<SloAlert> fired;
  std::lock_guard<std::mutex> lock(mutex_);
  for (TargetState& state : targets_) {
    // Find this target's per-type stats in the interval (by resolved name).
    const TypeIntervalStats* stats = nullptr;
    for (const TypeIntervalStats& t : interval.types) {
      const auto it = names.find(t.type);
      if (it != names.end() && it->second == state.target.type_name) {
        stats = &t;
        break;
      }
    }
    if (stats == nullptr) {
      continue;
    }
    state.window.emplace_back(stats->completions, stats->slo_violations);
    state.window_completions += stats->completions;
    state.window_violations += stats->slo_violations;
    while (state.window.size() > config_.window_intervals) {
      state.window_completions -= state.window.front().first;
      state.window_violations -= state.window.front().second;
      state.window.pop_front();
    }
    if (state.window_completions < config_.min_window_completions) {
      continue;
    }
    const double violation_fraction =
        static_cast<double>(state.window_violations) /
        static_cast<double>(state.window_completions);
    const double burn_rate = violation_fraction / state.target.budget_fraction;
    if (burn_rate < config_.burn_rate_alert) {
      continue;
    }
    if (interval.seq < state.cooldown_until_seq) {
      continue;
    }
    state.cooldown_until_seq = interval.seq + config_.cooldown_intervals;
    SloAlert alert;
    alert.at = interval.end;
    alert.interval_seq = interval.seq;
    alert.type_name = state.target.type_name;
    alert.burn_rate = burn_rate;
    alert.window_completions = state.window_completions;
    alert.window_violations = state.window_violations;
    fired.push_back(alert);
    alerts_.push_back(alert);
    undumped_.push_back(alert);
    ++alerts_total_;
    while (alerts_.size() > kMaxAlerts) {
      alerts_.pop_front();
    }
    while (undumped_.size() > kMaxAlerts) {
      undumped_.pop_front();
    }
  }
  return fired;
}

std::vector<SloAlert> SloMonitor::alerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<SloAlert>(alerts_.begin(), alerts_.end());
}

uint64_t SloMonitor::alerts_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return alerts_total_;
}

std::vector<SloAlert> SloMonitor::TakeUndumped() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloAlert> out(undumped_.begin(), undumped_.end());
  undumped_.clear();
  return out;
}

std::string BuildFlightRecord(const std::vector<SloAlert>& alerts,
                              const std::vector<IntervalRecord>& intervals,
                              const TelemetrySnapshot& snapshot) {
  std::string out = "{\"alerts\":[";
  bool first = true;
  for (const SloAlert& a : alerts) {
    if (!first) {
      out += ',';
    }
    first = false;
    char burn_rate[32];
    std::snprintf(burn_rate, sizeof(burn_rate), "%.3f", a.burn_rate);
    out += "{\"at\":" + std::to_string(a.at) +
           ",\"interval_seq\":" + std::to_string(a.interval_seq) +
           ",\"type\":\"" + JsonEscape(a.type_name) +
           "\",\"burn_rate\":" + burn_rate +
           ",\"window_completions\":" + std::to_string(a.window_completions) +
           ",\"window_violations\":" + std::to_string(a.window_violations) +
           '}';
  }
  // The CSV block is embedded as one JSON string (newlines escaped).
  out += "],\"intervals_csv\":\"" +
         JsonEscape(IntervalsToCsv(intervals, snapshot.type_names));
  out += "\",\"snapshot\":";
  out += snapshot.ToJson();
  out += '}';
  return out;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const int close_rc = std::fclose(f);
  return written == contents.size() && close_rc == 0;
}

}  // namespace psp
