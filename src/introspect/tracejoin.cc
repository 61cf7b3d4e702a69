#include "src/introspect/tracejoin.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

#include "src/common/json_escape.h"

namespace psp {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader. Only what the two trace bodies
// need: objects, arrays, strings, numbers, bools, null; depth-bounded so
// adversarial nesting cannot blow the stack. Integers are kept exact
// (timestamps exceed double's 2^53 integer range on long-uptime TSC clocks).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  int64_t integer = 0;
  bool is_integer = false;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  int64_t AsInt() const {
    return is_integer ? integer : static_cast<int64_t>(number);
  }
};

class JsonReader {
 public:
  JsonReader(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    if (!ParseValue(out, 0)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing garbage");
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool Fail(const char* why) {
    if (error_ != nullptr) {
      *error_ = std::string(why) + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return Fail("bad literal");
    }
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            *out += esc;
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
          case 'f':
            break;  // dropped; never appears in our producers
          case 'u':
            // Neither producer emits non-ASCII; decode the BMP code point to
            // '?' outside ASCII rather than carrying a UTF-8 encoder.
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            {
              unsigned cp = 0;
              for (int i = 0; i < 4; ++i) {
                const char h = text_[pos_++];
                cp <<= 4;
                if (h >= '0' && h <= '9') {
                  cp |= static_cast<unsigned>(h - '0');
                } else if (h >= 'a' && h <= 'f') {
                  cp |= static_cast<unsigned>(h - 'a' + 10);
                } else if (h >= 'A' && h <= 'F') {
                  cp |= static_cast<unsigned>(h - 'A' + 10);
                } else {
                  return Fail("bad \\u escape");
                }
              }
              *out += cp < 0x80 ? static_cast<char>(cp) : '?';
            }
            break;
          default:
            return Fail("bad escape");
        }
        continue;
      }
      *out += c;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t begin = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == begin) {
      return Fail("expected number");
    }
    const std::string tok = text_.substr(begin, pos_ - begin);
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::strtod(tok.c_str(), nullptr);
    if (integral) {
      out->is_integer = true;
      out->integer = std::strtoll(tok.c_str(), nullptr, 10);
    }
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail("nesting too deep");
    }
    SkipWs();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      out->kind = JsonValue::Kind::kObject;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != '"') {
          return Fail("expected object key");
        }
        std::string key;
        if (!ParseString(&key)) {
          return false;
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return Fail("expected ':'");
        }
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->object.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      ++pos_;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value, depth + 1)) {
          return false;
        }
        out->array.push_back(std::move(value));
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return Fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    return ParseNumber(out);
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

int64_t IntField(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  return v != nullptr && v->kind == JsonValue::Kind::kNumber ? v->AsInt() : 0;
}

// ---------------------------------------------------------------------------
// Joined-trace rendering (same pre-render-then-sort shape as trace_export.cc)
// ---------------------------------------------------------------------------

struct PendingEvent {
  Nanos at = 0;
  int order = 0;  // tie-break: M < b < X < e at identical ts
  std::string tail;
};

double Micros(Nanos at, Nanos origin) {
  return at <= origin ? 0.0 : static_cast<double>(at - origin) / 1000.0;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

Nanos ClampedSpan(Nanos from, Nanos to) { return to > from ? to - from : 0; }

}  // namespace

bool ParseClientSamplesJson(const std::string& json,
                            std::vector<ClientTraceRecord>* out,
                            std::string* error) {
  JsonValue root;
  if (!JsonReader(json, error).Parse(&root)) {
    return false;
  }
  const JsonValue* samples = nullptr;
  if (root.kind == JsonValue::Kind::kArray) {
    samples = &root;  // bare array form
  } else if (root.kind == JsonValue::Kind::kObject) {
    samples = root.Find("samples");
    if (samples == nullptr) {
      return true;  // a report without sampling: empty but well-formed
    }
  } else {
    if (error != nullptr) {
      *error = "client report: expected object or array";
    }
    return false;
  }
  if (samples->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) {
      *error = "client report: \"samples\" is not an array";
    }
    return false;
  }
  for (const JsonValue& s : samples->array) {
    if (s.kind != JsonValue::Kind::kObject) {
      if (error != nullptr) {
        *error = "client report: sample is not an object";
      }
      return false;
    }
    ClientTraceRecord rec;
    rec.request_id = static_cast<uint64_t>(IntField(s, "request_id"));
    rec.flow = static_cast<uint32_t>(IntField(s, "flow"));
    rec.wire_type = static_cast<uint32_t>(IntField(s, "wire_type"));
    rec.due_ns = IntField(s, "due_ns");
    rec.send_ns = IntField(s, "send_ns");
    rec.recv_ns = IntField(s, "recv_ns");
    rec.server_rx_ns = IntField(s, "server_rx_ns");
    rec.server_tx_ns = IntField(s, "server_tx_ns");
    out->push_back(rec);
  }
  return true;
}

bool ParseLifecycleJson(const std::string& json,
                        std::vector<ServerTraceRecord>* out,
                        std::string* error) {
  JsonValue root;
  if (!JsonReader(json, error).Parse(&root)) {
    return false;
  }
  if (root.kind != JsonValue::Kind::kObject) {
    if (error != nullptr) {
      *error = "lifecycle: expected an object";
    }
    return false;
  }
  const JsonValue* traces = root.Find("traces");
  if (traces == nullptr || traces->kind != JsonValue::Kind::kArray) {
    if (error != nullptr) {
      *error = "lifecycle: missing \"traces\" array";
    }
    return false;
  }
  for (const JsonValue& t : traces->array) {
    if (t.kind != JsonValue::Kind::kObject) {
      if (error != nullptr) {
        *error = "lifecycle: trace is not an object";
      }
      return false;
    }
    ServerTraceRecord rec;
    rec.request_id = static_cast<uint64_t>(IntField(t, "request_id"));
    rec.type = static_cast<uint32_t>(IntField(t, "type"));
    rec.worker = static_cast<uint32_t>(IntField(t, "worker"));
    rec.wire_request_id = static_cast<uint64_t>(IntField(t, "wire_request_id"));
    rec.client_id = static_cast<uint32_t>(IntField(t, "client_id"));
    const JsonValue* name = t.Find("type_name");
    if (name != nullptr && name->kind == JsonValue::Kind::kString) {
      rec.type_name = name->str;
    }
    const JsonValue* stamps = t.Find("stamps");
    if (stamps != nullptr && stamps->kind == JsonValue::Kind::kObject) {
      for (size_t i = 0; i < kNumTraceStages; ++i) {
        const JsonValue* v =
            stamps->Find(TraceStageName(static_cast<TraceStage>(i)));
        if (v != nullptr && v->kind == JsonValue::Kind::kNumber) {
          rec.stamp[i] = v->AsInt();
        }
      }
    }
    out->push_back(rec);
  }
  return true;
}

ClockOffsetEstimate EstimateClockOffset(
    const std::vector<ClientTraceRecord>& samples) {
  ClockOffsetEstimate est;
  Nanos min_forward = 0;
  Nanos min_backward = 0;
  for (const ClientTraceRecord& s : samples) {
    if (s.server_rx_ns <= 0 || s.server_tx_ns <= 0 || s.send_ns <= 0 ||
        s.recv_ns <= 0) {
      continue;  // never stamped (lost before the server, or unsampled echo)
    }
    const Nanos forward = s.server_rx_ns - s.send_ns;
    const Nanos backward = s.recv_ns - s.server_tx_ns;
    if (est.samples == 0 || forward < min_forward) {
      min_forward = forward;
    }
    if (est.samples == 0 || backward < min_backward) {
      min_backward = backward;
    }
    ++est.samples;
  }
  if (est.samples == 0) {
    return est;
  }
  est.valid = true;
  // Halving before subtracting keeps the intermediate in range even when the
  // two clocks are wildly apart (TSC epochs differ by machine uptime).
  est.offset = min_forward / 2 - min_backward / 2;
  est.uncertainty = min_forward / 2 + min_backward / 2;
  if (est.uncertainty < 0) {
    est.uncertainty = -est.uncertainty;
  }
  return est;
}

std::vector<JoinedSpan> JoinTraces(
    const std::vector<ClientTraceRecord>& client,
    const std::vector<ServerTraceRecord>& server, JoinStats* stats) {
  JoinStats local;
  // First record wins per (client_id, wire_request_id): the ring snapshot
  // can technically surface a key twice if a torn overwrite recommitted it.
  std::map<std::pair<uint32_t, uint64_t>, size_t> by_key;
  for (size_t i = 0; i < server.size(); ++i) {
    const auto key = std::make_pair(server[i].client_id,
                                    server[i].wire_request_id);
    if (!by_key.emplace(key, i).second) {
      ++local.duplicate_keys;
    }
  }
  std::vector<bool> used(server.size(), false);
  std::vector<JoinedSpan> spans;
  spans.reserve(client.size());
  for (const ClientTraceRecord& c : client) {
    JoinedSpan span;
    span.client = c;
    const auto it = by_key.find(std::make_pair(c.flow, c.request_id));
    if (it != by_key.end()) {
      span.server = server[it->second];
      span.has_server = true;
      used[it->second] = true;
      ++local.joined;
    } else {
      ++local.client_only;
    }
    spans.push_back(std::move(span));
  }
  for (const auto& [key, index] : by_key) {
    if (!used[index]) {
      ++local.server_only;
    }
  }
  std::sort(spans.begin(), spans.end(),
            [](const JoinedSpan& a, const JoinedSpan& b) {
              if (a.client.send_ns != b.client.send_ns) {
                return a.client.send_ns < b.client.send_ns;
              }
              if (a.client.flow != b.client.flow) {
                return a.client.flow < b.client.flow;
              }
              return a.client.request_id < b.client.request_id;
            });
  if (stats != nullptr) {
    *stats = local;
  }
  return spans;
}

std::string ExportJoinedTrace(const std::vector<JoinedSpan>& spans,
                              const ClockOffsetEstimate& clocks) {
  // Consecutive lifecycle stage pairs -> six server slices covering all
  // seven stamps.
  static constexpr struct {
    TraceStage from, to;
    const char* name;
  } kServerSlices[] = {
      {TraceStage::kRx, TraceStage::kClassified, "classify"},
      {TraceStage::kClassified, TraceStage::kEnqueued, "enqueue"},
      {TraceStage::kEnqueued, TraceStage::kDispatched, "queue"},
      {TraceStage::kDispatched, TraceStage::kHandlerStart, "handoff"},
      {TraceStage::kHandlerStart, TraceStage::kHandlerEnd, "service"},
      {TraceStage::kHandlerEnd, TraceStage::kTx, "reply"},
  };
  constexpr uint32_t kClientPid = 1;
  constexpr uint32_t kServerPid = 2;
  constexpr uint32_t kClientTid = 0;   // send loop
  constexpr uint32_t kNetworkTid = 1;  // wire both ways

  // Origin: earliest client-clock instant so timestamps are small and
  // non-negative regardless of clock epoch.
  Nanos origin = 0;
  bool have_origin = false;
  for (const JoinedSpan& s : spans) {
    const Nanos first = s.client.due_ns > 0 && s.client.due_ns < s.client.send_ns
                            ? s.client.due_ns
                            : s.client.send_ns;
    if (!have_origin || first < origin) {
      origin = first;
      have_origin = true;
    }
  }

  std::vector<PendingEvent> events;
  std::vector<uint32_t> workers_seen;
  bool server_process_seen = false;

  const auto emit = [&](Nanos at, int order, std::string tail) {
    events.push_back(PendingEvent{at, order, std::move(tail)});
  };

  for (const JoinedSpan& s : spans) {
    const ClientTraceRecord& c = s.client;
    std::string name = s.has_server && !s.server.type_name.empty()
                           ? JsonEscape(s.server.type_name)
                           : "type-" + std::to_string(c.wire_type);
    const std::string id =
        "f" + std::to_string(c.flow) + "r" + std::to_string(c.request_id);
    const Nanos due = c.due_ns > 0 && c.due_ns < c.send_ns ? c.due_ns
                                                           : c.send_ns;

    // Per-request async envelope: due -> recv on the client process.
    emit(due, 0,
         ",\"ph\":\"b\",\"cat\":\"request\",\"id\":\"" + id + "\",\"name\":\"" +
             name + "\",\"pid\":" + std::to_string(kClientPid) +
             ",\"tid\":" + std::to_string(kClientTid) + "}");
    emit(c.recv_ns, 2,
         ",\"ph\":\"e\",\"cat\":\"request\",\"id\":\"" + id + "\",\"name\":\"" +
             name + "\",\"pid\":" + std::to_string(kClientPid) +
             ",\"tid\":" + std::to_string(kClientTid) + "}");

    // Client queue: scheduled instant to the actual send.
    emit(due, 1,
         ",\"ph\":\"X\",\"name\":\"client-queue\",\"dur\":" +
             Num(static_cast<double>(ClampedSpan(due, c.send_ns)) / 1000.0) +
             ",\"pid\":" + std::to_string(kClientPid) +
             ",\"tid\":" + std::to_string(kClientTid) + ",\"args\":{\"id\":\"" +
             id + "\"}}");

    if (c.server_rx_ns > 0 && c.server_tx_ns > 0 && clocks.valid) {
      const Nanos rx_client = clocks.ToClientClock(c.server_rx_ns);
      const Nanos tx_client = clocks.ToClientClock(c.server_tx_ns);
      emit(c.send_ns, 1,
           ",\"ph\":\"X\",\"name\":\"wire-out\",\"dur\":" +
               Num(static_cast<double>(ClampedSpan(c.send_ns, rx_client)) /
                   1000.0) +
               ",\"pid\":" + std::to_string(kClientPid) +
               ",\"tid\":" + std::to_string(kNetworkTid) +
               ",\"args\":{\"id\":\"" + id + "\"}}");
      emit(tx_client, 1,
           ",\"ph\":\"X\",\"name\":\"wire-back\",\"dur\":" +
               Num(static_cast<double>(ClampedSpan(tx_client, c.recv_ns)) /
                   1000.0) +
               ",\"pid\":" + std::to_string(kClientPid) +
               ",\"tid\":" + std::to_string(kNetworkTid) +
               ",\"args\":{\"id\":\"" + id + "\"}}");
    }

    if (s.has_server && clocks.valid) {
      server_process_seen = true;
      const uint32_t tid = s.server.worker + 1;
      if (std::find(workers_seen.begin(), workers_seen.end(),
                    s.server.worker) == workers_seen.end()) {
        workers_seen.push_back(s.server.worker);
      }
      for (const auto& slice : kServerSlices) {
        const Nanos from = s.server.stamp[static_cast<size_t>(slice.from)];
        const Nanos to = s.server.stamp[static_cast<size_t>(slice.to)];
        if (from == 0 || to == 0) {
          continue;  // stage never recorded
        }
        emit(clocks.ToClientClock(from), 1,
             ",\"ph\":\"X\",\"name\":\"" + std::string(slice.name) +
                 "\",\"dur\":" +
                 Num(static_cast<double>(ClampedSpan(from, to)) / 1000.0) +
                 ",\"pid\":" + std::to_string(kServerPid) +
                 ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"id\":\"" +
                 id + "\",\"type\":\"" + name + "\"}}");
      }
    }
  }

  // Metadata first: process/thread names (the joined view's track labels).
  std::vector<PendingEvent> meta;
  const auto emit_meta = [&](uint32_t pid, int tid, const char* what,
                             const std::string& label) {
    std::string tail = ",\"ph\":\"M\",\"name\":\"";
    tail += what;
    tail += "\",\"pid\":" + std::to_string(pid);
    if (tid >= 0) {
      tail += ",\"tid\":" + std::to_string(tid);
    }
    tail += ",\"args\":{\"name\":\"" + label + "\"}}";
    meta.push_back(PendingEvent{0, -1, std::move(tail)});
  };
  emit_meta(kClientPid, -1, "process_name", "psp client (loadgen)");
  emit_meta(kClientPid, kClientTid, "thread_name", "client");
  emit_meta(kClientPid, kNetworkTid, "thread_name", "network");
  if (server_process_seen) {
    emit_meta(kServerPid, -1, "process_name", "psp server");
    std::sort(workers_seen.begin(), workers_seen.end());
    for (const uint32_t w : workers_seen) {
      emit_meta(kServerPid, static_cast<int>(w + 1), "thread_name",
                "worker " + std::to_string(w));
    }
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const PendingEvent& a, const PendingEvent& b) {
                     if (a.at != b.at) {
                       return a.at < b.at;
                     }
                     return a.order < b.order;
                   });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const PendingEvent& e : meta) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"ts\":0" + e.tail;
  }
  for (const PendingEvent& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"ts\":" + Num(Micros(e.at, origin)) + e.tail;
  }
  out += "]}";
  return out;
}

}  // namespace psp
