#include "src/telemetry/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/json_escape.h"

namespace psp {
namespace {

// One pre-rendered trace event: the sort key (ns) plus everything after
// `"ts":<value>` in the final JSON object. Rendering ts last keeps the sort
// stable and the formatting in exactly one place.
struct PendingEvent {
  Nanos at = 0;
  int order = 0;  // tie-break so b < X < e < i/C at identical ts
  std::string tail;
};

double ToMicros(Nanos at, Nanos origin) {
  // Events stamped before the origin (e.g. a pre-run annotation at 0 while
  // the runtime clock is TSC-based) clamp to 0 so no track goes backwards.
  return at <= origin ? 0.0 : static_cast<double>(at - origin) / 1000.0;
}

}  // namespace

std::string ExportCatapultTrace(const TelemetrySnapshot& snapshot,
                                const TraceExportOptions& options) {
  const uint32_t pid = options.pid;

  // Resolve the clock origin: the earliest timestamp anywhere, so exported
  // microsecond values stay small (the runtime's TSC epoch is arbitrary).
  Nanos origin = options.origin;
  if (origin == 0) {
    origin = INT64_MAX;
    for (const RequestTrace& t : snapshot.traces) {
      for (const Nanos s : t.stamp) {
        if (s > 0 && s < origin) {
          origin = s;
        }
      }
    }
    for (const TelemetryEvent& e : snapshot.events) {
      if (e.at > 0 && e.at < origin) {
        origin = e.at;
      }
    }
    for (const IntervalRecord& r : snapshot.timeseries) {
      if (r.start > 0 && r.start < origin) {
        origin = r.start;
      }
    }
    for (const ReservationUpdate& u : snapshot.reservation_updates) {
      if (u.at > 0 && u.at < origin) {
        origin = u.at;
      }
    }
    if (origin == INT64_MAX) {
      origin = 0;
    }
  }

  std::vector<PendingEvent> events;
  events.reserve(snapshot.traces.size() * 3 + snapshot.events.size() +
                 snapshot.timeseries.size() * 4);
  char buf[768];

  uint32_t max_worker = 0;
  for (const RequestTrace& t : snapshot.traces) {
    if (t.worker > max_worker) {
      max_worker = t.worker;
    }

    const Nanos start = t.At(TraceStage::kHandlerStart);
    const Nanos end = t.At(TraceStage::kHandlerEnd);
    const std::string name = TypeNameOf(snapshot.type_names, t.type);
    if (start > 0 && end >= start) {
      // Service slice on the worker's track, with the stage decomposition
      // (snapshot.h's kStageSpans) as args.
      std::snprintf(
          buf, sizeof(buf),
          ",\"dur\":%.3f,\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"name\":\"%s\","
          "\"cat\":\"request\",\"args\":{\"request_id\":%llu,\"type\":%u",
          static_cast<double>(end - start) / 1000.0, pid, 1 + t.worker,
          JsonEscape(name).c_str(),
          static_cast<unsigned long long>(t.request_id), t.type);
      std::string tail = buf;
      for (const StageSpan& span : kStageSpans) {
        tail += ",\"";
        tail += span.label;
        tail += "_ns\":" + std::to_string(t.Span(span.from, span.to));
      }
      events.push_back(PendingEvent{start, 1, tail + "}}"});
    }

    if (options.include_async_spans) {
      const Nanos rx = t.At(TraceStage::kRx);
      const Nanos tx = t.At(TraceStage::kTx);
      if (rx > 0 && tx >= rx) {
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"b\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
                      "\"cat\":\"lifecycle\",\"id\":\"%llx\"}",
                      pid, JsonEscape(name).c_str(),
                      static_cast<unsigned long long>(t.request_id));
        events.push_back(PendingEvent{rx, 0, buf});
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"e\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
                      "\"cat\":\"lifecycle\",\"id\":\"%llx\"}",
                      pid, JsonEscape(name).c_str(),
                      static_cast<unsigned long long>(t.request_id));
        events.push_back(PendingEvent{tx, 2, buf});
      }
    }
  }

  // Scheduler / subsystem annotations as global instant events.
  for (const TelemetryEvent& e : snapshot.events) {
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"i\",\"pid\":%u,\"tid\":0,\"name\":\"%s\","
                  "\"cat\":\"scheduler\",\"s\":\"g\"}",
                  pid, JsonEscape(e.what).c_str());
    events.push_back(PendingEvent{e.at, 3, buf});
  }

  if (options.include_counters) {
    // Reservation shares at each update: the DARC convergence counter track.
    for (const ReservationUpdate& u : snapshot.reservation_updates) {
      for (const ReservationShare& s : u.shares) {
        std::snprintf(buf, sizeof(buf),
                      ",\"ph\":\"C\",\"pid\":%u,\"tid\":0,"
                      "\"name\":\"reserved_cores:%s\",\"args\":{\"cores\":%u}}",
                      pid, JsonEscape(s.name).c_str(), s.reserved_workers);
        events.push_back(PendingEvent{u.at, 3, buf});
      }
    }
    // Interval-close samples: queue depth + windowed p99 slowdown per type.
    for (const IntervalRecord& r : snapshot.timeseries) {
      for (const TypeIntervalStats& t : r.types) {
        const std::string name =
            JsonEscape(TypeNameOf(snapshot.type_names, t.type));
        if (t.queue_depth >= 0) {
          std::snprintf(buf, sizeof(buf),
                        ",\"ph\":\"C\",\"pid\":%u,\"tid\":0,"
                        "\"name\":\"queue_depth:%s\",\"args\":{\"depth\":%lld}}",
                        pid, name.c_str(),
                        static_cast<long long>(t.queue_depth));
          events.push_back(PendingEvent{r.end, 3, buf});
        }
        if (t.slowdown_samples > 0) {
          std::snprintf(
              buf, sizeof(buf),
              ",\"ph\":\"C\",\"pid\":%u,\"tid\":0,"
              "\"name\":\"p99_slowdown_milli:%s\",\"args\":{\"milli\":%lld}}",
              pid, name.c_str(),
              static_cast<long long>(t.slowdown_p99_milli));
          events.push_back(PendingEvent{r.end, 3, buf});
        }
      }
      // Time-ledger decomposition: one counter track per worker-time state,
      // the aggregate share (permille of worker wall time) each interval —
      // reserved_idle rising as DARC applies reservations is the paper's
      // "ideal idling" made visible on the timeline.
      for (size_t s = 0; s < r.worker_state_permille.size() &&
                         s < kNumWorkerTimeStates;
           ++s) {
        std::snprintf(
            buf, sizeof(buf),
            ",\"ph\":\"C\",\"pid\":%u,\"tid\":0,"
            "\"name\":\"worker_time_permille:%s\","
            "\"args\":{\"permille\":%lld}}",
            pid, WorkerTimeStateName(static_cast<WorkerTimeState>(s)),
            static_cast<long long>(r.worker_state_permille[s]));
        events.push_back(PendingEvent{r.end, 3, buf});
      }
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const PendingEvent& a, const PendingEvent& b) {
                     if (a.at != b.at) {
                       return a.at < b.at;
                     }
                     return a.order < b.order;
                   });

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata first (ph "M" names the process and every track).
  std::snprintf(buf, sizeof(buf),
                "{\"ts\":0,\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                "\"name\":\"process_name\",\"args\":{\"name\":"
                "\"persephone\"}}",
                pid);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                ",{\"ts\":0,\"ph\":\"M\",\"pid\":%u,\"tid\":0,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"scheduler\"}}",
                pid);
  out += buf;
  for (uint32_t w = 0; w <= max_worker; ++w) {
    std::snprintf(buf, sizeof(buf),
                  ",{\"ts\":0,\"ph\":\"M\",\"pid\":%u,\"tid\":%u,"
                  "\"name\":\"thread_name\",\"args\":{\"name\":"
                  "\"worker %u\"}}",
                  pid, 1 + w, w);
    out += buf;
  }
  first = false;

  for (const PendingEvent& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    std::snprintf(buf, sizeof(buf), "{\"ts\":%.3f",
                  ToMicros(e.at, origin));
    out += buf;
    out += e.tail;
  }
  out += "]}";
  return out;
}

}  // namespace psp
