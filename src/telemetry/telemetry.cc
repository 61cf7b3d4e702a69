#include "src/telemetry/telemetry.h"

namespace psp {

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return *slot;
}

void MetricsRegistry::Export(TelemetrySnapshot* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    out->counters[name] += counter->Value();
  }
}

std::string TelemetryConfig::Validate() const {
  if (enable_tracing && sample_every > 0 && trace_ring_capacity == 0) {
    return "telemetry: trace_ring_capacity must be > 0 when tracing is on";
  }
  if (const std::string error = timeseries.Validate(); !error.empty()) {
    return error;
  }
  return "";
}

Telemetry::Telemetry(TelemetryConfig config, size_t num_rings)
    : config_(config) {
  // Untraced engines never commit a record, so they get no rings at all
  // (a ring's slots are allocated and zero-filled up front).
  if (config_.enable_tracing) {
    if (num_rings == 0) {
      num_rings = 1;
    }
    const size_t capacity =
        config_.trace_ring_capacity > 0 ? config_.trace_ring_capacity : 1;
    rings_.reserve(num_rings);
    for (size_t i = 0; i < num_rings; ++i) {
      rings_.push_back(std::make_unique<TraceRing>(capacity));
    }
  }
  if (config_.timeseries.enabled) {
    timeseries_ = std::make_unique<TimeSeriesRecorder>(config_.timeseries);
  }
}

void Telemetry::RecordEvent(Nanos at, std::string what) {
  std::lock_guard<std::mutex> lock(events_mutex_);
  if (events_.size() >= kMaxEvents) {
    events_.pop_front();
  }
  events_.push_back(TelemetryEvent{at, std::move(what)});
}

size_t Telemetry::RegisterSeries(uint32_t type_key, const std::string& name) {
  if (!timeseries_) {
    return SIZE_MAX;
  }
  const size_t slot = timeseries_->RegisterSeries(type_key, name);
  series_names_.emplace(type_key, name);
  return slot;
}

void Telemetry::RecordReservationUpdate(ReservationUpdate update) {
  if (timeseries_) {
    timeseries_->NoteReservationUpdate(update.at);
  }
  std::lock_guard<std::mutex> lock(events_mutex_);
  if (reservation_updates_.size() >= kMaxReservationUpdates) {
    reservation_updates_.pop_front();
  }
  reservation_updates_.push_back(std::move(update));
}

std::vector<ReservationUpdate> Telemetry::reservation_updates() const {
  std::lock_guard<std::mutex> lock(events_mutex_);
  return std::vector<ReservationUpdate>(reservation_updates_.begin(),
                                        reservation_updates_.end());
}

void Telemetry::AdvanceTimeSeries(Nanos now, bool flush) {
  if (!timeseries_) {
    return;
  }
  timeseries_->Roll(now, flush);
}

TelemetrySnapshot Telemetry::Snapshot() const {
  TelemetrySnapshot snap;
  registry_.Export(&snap);
  for (const auto& ring : rings_) {
    ring->Snapshot(&snap.traces);
    snap.counters["telemetry.traces_recorded"] += ring->pushed();
  }
  {
    std::lock_guard<std::mutex> lock(events_mutex_);
    snap.events.insert(snap.events.end(), events_.begin(), events_.end());
    snap.reservation_updates.insert(snap.reservation_updates.end(),
                                    reservation_updates_.begin(),
                                    reservation_updates_.end());
  }
  if (timeseries_) {
    snap.timeseries = timeseries_->History();
    snap.counters["telemetry.intervals_closed"] +=
        timeseries_->intervals_closed();
    for (const auto& [key, name] : series_names_) {
      snap.type_names.emplace(key, name);
    }
  }
  return snap;
}

}  // namespace psp
