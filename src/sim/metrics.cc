#include "src/sim/metrics.h"

#include <algorithm>
#include <cmath>

namespace psp {
namespace {

const std::string kUnnamed = "?";

}  // namespace

void Metrics::RegisterType(TypeId wire_id, std::string name) {
  if (index_.contains(wire_id)) {
    types_[index_[wire_id]].name = std::move(name);
    return;
  }
  index_[wire_id] = types_.size();
  type_ids_.push_back(wire_id);
  types_.emplace_back();
  types_.back().name = std::move(name);
}

Metrics::PerType& Metrics::SlotFor(TypeId wire_id) {
  auto it = index_.find(wire_id);
  if (it == index_.end()) {
    RegisterType(wire_id, "type-" + std::to_string(wire_id));
    it = index_.find(wire_id);
  }
  return types_[it->second];
}

const Metrics::PerType* Metrics::FindSlot(TypeId wire_id) const {
  const auto it = index_.find(wire_id);
  return it == index_.end() ? nullptr : &types_[it->second];
}

void Metrics::RecordCompletion(TypeId wire_id, Nanos send_time,
                               Nanos receive_time, Nanos service_time,
                               Nanos deadline, Nanos completion_time) {
  if (send_time < warmup_end_) {
    return;
  }
  const Nanos latency = receive_time - send_time;
  PerType& slot = SlotFor(wire_id);
  if (deadline > 0) {
    ++slot.deadline_total;
    ++deadline_total_;
    if (completion_time > deadline) {
      ++slot.deadline_missed;
      ++deadline_missed_;
    }
  }
  slot.latency.Add(latency);
  const int64_t slowdown_milli =
      service_time > 0
          ? static_cast<int64_t>(
                std::llround(static_cast<double>(latency) * kSlowdownScale /
                             static_cast<double>(service_time)))
          : kSlowdownScale;
  slot.slowdown.Add(slowdown_milli);
  ++total_completions_;

  if (bucket_width_ > 0) {
    slot.buckets[send_time / bucket_width_].push_back(latency);
  }
}

void Metrics::RecordDrop(TypeId wire_id) {
  ++SlotFor(wire_id).drops;
  ++total_drops_;
}

void Metrics::RecordDeadlineShed(TypeId wire_id, Nanos send_time) {
  if (send_time < warmup_end_) {
    return;
  }
  ++SlotFor(wire_id).deadline_shed;
  ++deadline_shed_;
}

Histogram Metrics::Pooled(Histogram PerType::*view) const {
  Histogram pooled;
  for (const PerType& slot : types_) {
    pooled.Merge(slot.*view);
  }
  return pooled;
}

double Metrics::OverallSlowdown(double pct) const {
  return static_cast<double>(Pooled(&PerType::slowdown).Percentile(pct)) /
         kSlowdownScale;
}

double Metrics::TypeSlowdown(TypeId wire_id, double pct) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0
                         : static_cast<double>(slot->slowdown.Percentile(pct)) /
                               kSlowdownScale;
}

Nanos Metrics::TypeLatency(TypeId wire_id, double pct) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0 : slot->latency.Percentile(pct);
}

Nanos Metrics::OverallLatency(double pct) const {
  return Pooled(&PerType::latency).Percentile(pct);
}

double Metrics::TypeMeanLatency(TypeId wire_id) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0 : slot->latency.Mean();
}

uint64_t Metrics::TypeCount(TypeId wire_id) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0 : slot->latency.Count();
}

uint64_t Metrics::TypeDrops(TypeId wire_id) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0 : slot->drops;
}

uint64_t Metrics::TypeDeadlineMisses(TypeId wire_id) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? 0 : slot->deadline_missed;
}

const std::string& Metrics::TypeName(TypeId wire_id) const {
  const PerType* slot = FindSlot(wire_id);
  return slot == nullptr ? kUnnamed : slot->name;
}

void Metrics::ExportTelemetry(TelemetrySnapshot* out) const {
  out->counters["engine.completed"] += total_completions_;
  out->counters["engine.dropped"] += total_drops_;
  // Deadline counters only appear once a deadlined request has been seen, so
  // deadline-free runs export byte-identical snapshots to earlier versions.
  if (deadline_total_ + deadline_shed_ > 0) {
    out->counters["engine.deadline_completions"] += deadline_total_;
    out->counters["engine.deadline_missed"] += deadline_missed_;
    out->counters["engine.deadline_shed"] += deadline_shed_;
  }
  Histogram& latency = out->histograms["engine.latency"];
  Histogram& slowdown = out->histograms["engine.slowdown_milli"];
  for (const TypeId wire_id : type_ids_) {
    const PerType& slot = types_[index_.at(wire_id)];
    latency.Merge(slot.latency);
    slowdown.Merge(slot.slowdown);
    out->type_names.emplace(wire_id, slot.name);
    const std::string prefix = "engine.type." + slot.name;
    out->counters[prefix + ".completed"] += slot.latency.Count();
    out->counters[prefix + ".dropped"] += slot.drops;
    out->histograms[prefix + ".latency"].Merge(slot.latency);
    out->histograms[prefix + ".slowdown_milli"].Merge(slot.slowdown);
  }
}

std::vector<Metrics::BucketStats> Metrics::TimeSeries(TypeId wire_id,
                                                      double pct) const {
  std::vector<BucketStats> out;
  const PerType* slot = FindSlot(wire_id);
  if (slot == nullptr || bucket_width_ == 0) {
    return out;
  }
  for (const auto& [bucket, samples_const] : slot->buckets) {
    std::vector<Nanos> samples = samples_const;
    std::sort(samples.begin(), samples.end());
    BucketStats stats;
    stats.start = bucket * bucket_width_;
    stats.count = samples.size();
    if (!samples.empty()) {
      const auto rank = [&](double q) {
        const size_t r = static_cast<size_t>(
            std::min<double>(static_cast<double>(samples.size()) - 1,
                             q / 100.0 * static_cast<double>(samples.size())));
        return samples[r];
      };
      stats.p999_latency = rank(pct);
      stats.p50_latency = rank(50.0);
      double sum = 0;
      for (const Nanos v : samples) {
        sum += static_cast<double>(v);
      }
      stats.mean_latency = sum / static_cast<double>(samples.size());
    }
    out.push_back(stats);
  }
  return out;
}

}  // namespace psp
