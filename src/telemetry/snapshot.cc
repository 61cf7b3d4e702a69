#include "src/telemetry/snapshot.h"

#include <cstdio>

#include "src/common/json_escape.h"

namespace psp {
namespace {

void AppendHistogramJson(std::string* out, const Histogram& h) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%llu,\"mean\":%.1f,\"p50\":%lld,\"p99\":%lld,"
                "\"p999\":%lld,\"max\":%lld}",
                static_cast<unsigned long long>(h.Count()), h.Mean(),
                static_cast<long long>(h.Percentile(50)),
                static_cast<long long>(h.Percentile(99)),
                static_cast<long long>(h.Percentile(99.9)),
                static_cast<long long>(h.Max()));
  *out += buf;
}

void AppendSpanRow(std::string* out, const char* label, const Histogram& h) {
  if (h.Count() == 0) {
    return;
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "    %-10s %8llu samples  mean %9.2f us  p50 %9.2f us  "
                "p99 %9.2f us  max %9.2f us\n",
                label, static_cast<unsigned long long>(h.Count()),
                h.Mean() / 1e3, static_cast<double>(h.Percentile(50)) / 1e3,
                static_cast<double>(h.Percentile(99)) / 1e3,
                static_cast<double>(h.Max()) / 1e3);
  *out += buf;
}

}  // namespace

uint64_t TelemetrySnapshot::counter(const std::string& name,
                                    uint64_t fallback) const {
  const auto it = counters.find(name);
  return it != counters.end() ? it->second : fallback;
}

int64_t TelemetrySnapshot::gauge(const std::string& name,
                                 int64_t fallback) const {
  const auto it = gauges.find(name);
  return it != gauges.end() ? it->second : fallback;
}

void TelemetrySnapshot::Merge(const TelemetrySnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    gauges[name] = value;
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
  traces.insert(traces.end(), other.traces.begin(), other.traces.end());
  events.insert(events.end(), other.events.begin(), other.events.end());
  timeseries.insert(timeseries.end(), other.timeseries.begin(),
                    other.timeseries.end());
  reservation_updates.insert(reservation_updates.end(),
                             other.reservation_updates.begin(),
                             other.reservation_updates.end());
  for (const auto& [type, name] : other.type_names) {
    type_names.emplace(type, name);
  }
  worker_time.insert(worker_time.end(), other.worker_time.begin(),
                     other.worker_time.end());
  deadline_types.insert(deadline_types.end(), other.deadline_types.begin(),
                        other.deadline_types.end());
}

std::map<uint32_t, TypeStageBreakdown> TelemetrySnapshot::StageBreakdown()
    const {
  std::map<uint32_t, TypeStageBreakdown> by_type;
  for (const RequestTrace& t : traces) {
    TypeStageBreakdown& b = by_type[t.type];
    if (b.traces == 0) {
      const auto it = type_names.find(t.type);
      b.name = it != type_names.end() ? it->second
                                      : "type-" + std::to_string(t.type);
    }
    ++b.traces;
    const struct {
      Histogram* hist;
      TraceStage from;
      TraceStage to;
    } spans[] = {
        {&b.preprocess, TraceStage::kRx, TraceStage::kEnqueued},
        {&b.queueing, TraceStage::kEnqueued, TraceStage::kDispatched},
        {&b.handoff, TraceStage::kDispatched, TraceStage::kHandlerStart},
        {&b.service, TraceStage::kHandlerStart, TraceStage::kHandlerEnd},
        {&b.reply, TraceStage::kHandlerEnd, TraceStage::kTx},
        {&b.total, TraceStage::kRx, TraceStage::kTx},
    };
    for (const auto& span : spans) {
      if (t.At(span.from) != 0 && t.At(span.to) != 0) {
        span.hist->Add(t.Span(span.from, span.to));
      }
    }
  }
  return by_type;
}

std::string TelemetrySnapshot::ToTable() const {
  std::string out;
  char buf[256];
  out += "counters:\n";
  for (const auto& [name, value] : counters) {
    std::snprintf(buf, sizeof(buf), "  %-36s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += buf;
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : gauges) {
      std::snprintf(buf, sizeof(buf), "  %-36s %lld\n", name.c_str(),
                    static_cast<long long>(value));
      out += buf;
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const auto& [name, hist] : histograms) {
      std::snprintf(buf, sizeof(buf),
                    "  %-36s n=%llu mean=%.1f p50=%lld p99=%lld max=%lld\n",
                    name.c_str(), static_cast<unsigned long long>(hist.Count()),
                    hist.Mean(), static_cast<long long>(hist.Percentile(50)),
                    static_cast<long long>(hist.Percentile(99)),
                    static_cast<long long>(hist.Max()));
      out += buf;
    }
  }
  if (!events.empty()) {
    out += "events:\n";
    for (const TelemetryEvent& e : events) {
      std::snprintf(buf, sizeof(buf), "  [%9.3f ms] ",
                    static_cast<double>(e.at) / 1e6);
      out += buf;
      out += e.what;
      out += '\n';
    }
  }
  std::snprintf(buf, sizeof(buf), "traces: %zu sampled\n", traces.size());
  out += buf;
  return out;
}

std::string TelemetrySnapshot::ToJson() const {
  std::string out = "{";
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(name) + "\":" + std::to_string(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(name) + "\":";
    AppendHistogramJson(&out, hist);
  }
  out += "},\"events\":[";
  first = true;
  for (const TelemetryEvent& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"at\":" + std::to_string(e.at) + ",\"what\":\"" +
           JsonEscape(e.what) + "\"}";
  }
  out += "],\"timeseries\":[";
  first = true;
  for (const IntervalRecord& r : timeseries) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"seq\":" + std::to_string(r.seq) +
           ",\"start\":" + std::to_string(r.start) +
           ",\"end\":" + std::to_string(r.end) +
           ",\"reservation_updates\":" + std::to_string(r.reservation_updates);
    char rate[80];
    std::snprintf(rate, sizeof(rate),
                  ",\"arrival_rps\":%.1f,\"completion_rps\":%.1f",
                  r.arrival_rate_rps, r.completion_rate_rps);
    out += rate;
    out += ",\"types\":[";
    bool first_type = true;
    for (const TypeIntervalStats& t : r.types) {
      if (!first_type) {
        out += ',';
      }
      first_type = false;
      const auto it = type_names.find(t.type);
      const std::string name = it != type_names.end()
                                   ? it->second
                                   : "type-" + std::to_string(t.type);
      out += "{\"type\":" + std::to_string(t.type) + ",\"name\":\"" +
             JsonEscape(name) + "\",\"arrivals\":" +
             std::to_string(t.arrivals) +
             ",\"completions\":" + std::to_string(t.completions) +
             ",\"drops\":" + std::to_string(t.drops) +
             ",\"slo_violations\":" + std::to_string(t.slo_violations) +
             ",\"deadline_misses\":" + std::to_string(t.deadline_misses) +
             ",\"deadline_sheds\":" + std::to_string(t.deadline_sheds) +
             ",\"queue_depth\":" + std::to_string(t.queue_depth) +
             ",\"reserved_workers\":" + std::to_string(t.reserved_workers) +
             ",\"slowdown_samples\":" + std::to_string(t.slowdown_samples) +
             ",\"slowdown_p50_milli\":" +
             std::to_string(t.slowdown_p50_milli) +
             ",\"slowdown_p99_milli\":" +
             std::to_string(t.slowdown_p99_milli) +
             ",\"slowdown_p999_milli\":" +
             std::to_string(t.slowdown_p999_milli) + '}';
    }
    out += "],\"worker_busy_permille\":[";
    bool first_worker = true;
    for (const int64_t b : r.worker_busy_permille) {
      if (!first_worker) {
        out += ',';
      }
      first_worker = false;
      out += std::to_string(b);
    }
    out += "],\"worker_state_permille\":[";
    bool first_state = true;
    for (const int64_t p : r.worker_state_permille) {
      if (!first_state) {
        out += ',';
      }
      first_state = false;
      out += std::to_string(p);
    }
    out += "]}";
  }
  out += "],\"reservation_updates\":[";
  first = true;
  for (const ReservationUpdate& u : reservation_updates) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"at\":" + std::to_string(u.at) +
           ",\"seq\":" + std::to_string(u.seq) +
           ",\"window\":" + std::to_string(u.window) + ",\"shares\":[";
    bool first_share = true;
    for (const ReservationShare& s : u.shares) {
      if (!first_share) {
        out += ',';
      }
      first_share = false;
      out += "{\"type\":" + std::to_string(s.type) + ",\"name\":\"" +
             JsonEscape(s.name) + "\",\"reserved_workers\":" +
             std::to_string(s.reserved_workers) + '}';
    }
    out += "]}";
  }
  out += "],\"deadline_types\":[";
  first = true;
  for (const DeadlineTypeStats& d : deadline_types) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"type\":" + std::to_string(d.type) + ",\"name\":\"" +
           JsonEscape(d.name) + "\",\"missed\":" + std::to_string(d.missed) +
           ",\"shed\":" + std::to_string(d.shed) +
           ",\"slack_sum_nanos\":" + std::to_string(d.slack_sum_nanos) +
           ",\"slack_samples\":" + std::to_string(d.slack_samples) +
           ",\"budget_nanos\":" + std::to_string(d.budget_nanos) + '}';
  }
  out += "],\"stage_breakdown\":{";
  first = true;
  for (const auto& [type, b] : StageBreakdown()) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += '"' + JsonEscape(b.name) + "\":{\"traces\":" +
           std::to_string(b.traces);
    const struct {
      const char* label;
      const Histogram* hist;
    } spans[] = {{"preprocess", &b.preprocess}, {"queueing", &b.queueing},
                 {"handoff", &b.handoff},       {"service", &b.service},
                 {"reply", &b.reply},           {"total", &b.total}};
    for (const auto& span : spans) {
      out += ",\"";
      out += span.label;
      out += "\":";
      AppendHistogramJson(&out, *span.hist);
    }
    out += '}';
  }
  out += "},\"worker_time\":[";
  first = true;
  for (const WorkerTimeRecord& w : worker_time) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"slot\":" + std::to_string(w.slot) + ",\"role\":\"" +
           JsonEscape(w.role) + "\",\"state_ns\":{";
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      if (s != 0) {
        out += ',';
      }
      out += '"';
      out += WorkerTimeStateName(static_cast<WorkerTimeState>(s));
      out += "\":" + std::to_string(w.state_ns[s]);
    }
    out += "},\"busy_type_ns\":{";
    bool first_type = true;
    for (const auto& [name, ns] : w.busy_type_ns) {
      if (!first_type) {
        out += ',';
      }
      first_type = false;
      out += '"' + JsonEscape(name) + "\":" + std::to_string(ns);
    }
    out += "}}";
  }
  out += "],\"num_traces\":" + std::to_string(traces.size());
  out += '}';
  return out;
}

std::string TelemetrySnapshot::StageReport() const {
  std::string out;
  const auto breakdown = StageBreakdown();
  if (breakdown.empty()) {
    return "no sampled traces\n";
  }
  out += "per-stage latency breakdown (sampled traces):\n";
  for (const auto& [type, b] : breakdown) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %s (%llu traces)\n", b.name.c_str(),
                  static_cast<unsigned long long>(b.traces));
    out += buf;
    AppendSpanRow(&out, "preprocess", b.preprocess);
    AppendSpanRow(&out, "queueing", b.queueing);
    AppendSpanRow(&out, "handoff", b.handoff);
    AppendSpanRow(&out, "service", b.service);
    AppendSpanRow(&out, "reply", b.reply);
    AppendSpanRow(&out, "total", b.total);
  }
  return out;
}

}  // namespace psp
