#include "src/introspect/outliers.h"

#include <algorithm>

#include "src/common/json_escape.h"
#include "src/telemetry/snapshot.h"

namespace psp {
namespace {

// Min-heap order: the root is the *least* slow retained record (the next
// eviction candidate). Ties rank by request id so the retained set — and
// therefore the JSON — is deterministic when totals collide.
bool HeapAfter(const OutlierEntry& a, const OutlierEntry& b) {
  if (a.total != b.total) {
    return a.total > b.total;
  }
  return a.trace.request_id > b.trace.request_id;
}

// Display order: slowest first.
bool SlowestFirst(const OutlierEntry& a, const OutlierEntry& b) {
  if (a.total != b.total) {
    return a.total > b.total;
  }
  return a.trace.request_id < b.trace.request_id;
}

void AppendEntryJson(std::string* out, const OutlierEntry& e) {
  *out += "{\"request_id\":" + std::to_string(e.trace.request_id) +
          ",\"worker\":" + std::to_string(e.trace.worker) +
          ",\"total_nanos\":" + std::to_string(e.total) + ",\"stages\":{";
  const struct {
    const char* label;
    TraceStage from;
    TraceStage to;
  } spans[] = {
      {"preprocess", TraceStage::kRx, TraceStage::kEnqueued},
      {"queueing", TraceStage::kEnqueued, TraceStage::kDispatched},
      {"handoff", TraceStage::kDispatched, TraceStage::kHandlerStart},
      {"service", TraceStage::kHandlerStart, TraceStage::kHandlerEnd},
      {"reply", TraceStage::kHandlerEnd, TraceStage::kTx},
  };
  bool first = true;
  for (const auto& span : spans) {
    if (!first) {
      *out += ',';
    }
    first = false;
    *out += '"';
    *out += span.label;
    *out += "\":" + std::to_string(e.trace.Span(span.from, span.to));
  }
  *out += "},\"stamps\":[";
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    if (s != 0) {
      *out += ',';
    }
    *out += std::to_string(e.trace.stamp[s]);
  }
  *out += "]}";
}

}  // namespace

std::string OutlierConfig::Validate() const {
  if (!enabled) {
    return "";
  }
  if (k == 0) {
    return "outliers: k must be > 0";
  }
  if (window < 0) {
    return "outliers: window must be >= 0";
  }
  return "";
}

OutlierRecorder::OutlierRecorder(OutlierConfig config) : config_(config) {}

void OutlierRecorder::Offer(const RequestTrace& trace, Nanos now) {
  if (trace.At(TraceStage::kRx) == 0 || trace.At(TraceStage::kTx) == 0) {
    return;  // no ranking key without both endpoints
  }
  OutlierEntry entry;
  entry.trace = trace;
  entry.total = trace.Span(TraceStage::kRx, TraceStage::kTx);

  std::lock_guard<std::mutex> lock(mutex_);
  ++offered_;
  if (config_.window > 0) {
    if (window_end_ == 0) {
      // First offer pins the grid, like the time-series recorder.
      window_start_ = now / config_.window * config_.window;
      window_end_ = window_start_ + config_.window;
      window_seq_ = static_cast<uint64_t>(window_start_ / config_.window);
    } else if (now >= window_end_) {
      RotateLocked(now);
    }
  }
  TypeRing& ring = current_[trace.type];
  if (ring.heap.size() < config_.k) {
    ring.heap.push_back(entry);
    std::push_heap(ring.heap.begin(), ring.heap.end(), HeapAfter);
    return;
  }
  // Full: keep only if slower than the current cheapest retained record.
  if (!HeapAfter(entry, ring.heap.front())) {
    return;
  }
  std::pop_heap(ring.heap.begin(), ring.heap.end(), HeapAfter);
  ring.heap.back() = entry;
  std::push_heap(ring.heap.begin(), ring.heap.end(), HeapAfter);
}

void OutlierRecorder::RotateLocked(Nanos now) {
  previous_ = OutlierWindow{};
  previous_.seq = window_seq_;
  previous_.start = window_start_;
  previous_.end = window_end_;
  for (const auto& [type, ring] : current_) {
    if (ring.heap.empty()) {
      continue;
    }
    std::vector<OutlierEntry> sorted = ring.heap;
    std::sort(sorted.begin(), sorted.end(), SlowestFirst);
    previous_.per_type.emplace(type, std::move(sorted));
  }
  has_previous_ = true;
  current_.clear();
  ++rotations_;
  // Jump straight to the window containing `now` (idle stretches skip
  // windows instead of replaying them).
  window_start_ = now / config_.window * config_.window;
  window_end_ = window_start_ + config_.window;
  window_seq_ = static_cast<uint64_t>(window_start_ / config_.window);
}

std::vector<OutlierWindow> OutlierRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<OutlierWindow> out;
  OutlierWindow cur;
  cur.seq = window_seq_;
  cur.start = window_start_;
  cur.end = 0;  // still open
  for (const auto& [type, ring] : current_) {
    if (ring.heap.empty()) {
      continue;
    }
    std::vector<OutlierEntry> sorted = ring.heap;
    std::sort(sorted.begin(), sorted.end(), SlowestFirst);
    cur.per_type.emplace(type, std::move(sorted));
  }
  out.push_back(std::move(cur));
  if (has_previous_) {
    out.push_back(previous_);
  }
  return out;
}

uint64_t OutlierRecorder::offered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return offered_;
}

uint64_t OutlierRecorder::windows_rotated() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rotations_;
}

std::string OutlierRecorder::ToJson(
    const std::map<uint32_t, std::string>& type_names) const {
  const std::vector<OutlierWindow> windows = Snapshot();
  std::string out = "{\"k\":" + std::to_string(config_.k) +
                    ",\"window_nanos\":" + std::to_string(config_.window) +
                    ",\"windows\":[";
  bool first_window = true;
  for (const OutlierWindow& w : windows) {
    if (!first_window) {
      out += ',';
    }
    first_window = false;
    out += "{\"seq\":" + std::to_string(w.seq) +
           ",\"start\":" + std::to_string(w.start) +
           ",\"end\":" + std::to_string(w.end) +
           ",\"open\":" + (w.end == 0 ? "true" : "false") + ",\"types\":[";
    bool first_type = true;
    for (const auto& [type, entries] : w.per_type) {
      if (!first_type) {
        out += ',';
      }
      first_type = false;
      out += "{\"type\":" + std::to_string(type) + ",\"name\":\"" +
             JsonEscape(TypeNameOf(type_names, type)) + "\",\"outliers\":[";
      bool first_entry = true;
      for (const OutlierEntry& e : entries) {
        if (!first_entry) {
          out += ',';
        }
        first_entry = false;
        AppendEntryJson(&out, e);
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace psp
