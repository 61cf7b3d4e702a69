#include "src/introspect/prometheus.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace psp {
namespace {

// Indexed instrument names "<prefix><index>.<field>" fold into one
// "<metric_prefix><field>" family with a {label="<index>"} sample per index.
// A numeric index is the digits up to the next '.'; a type index is
// everything up to the last '.', so any request-type name folds whole.
struct IndexedFamily {
  const char* prefix;
  const char* metric_prefix;
  const char* label;
  const char* help_suffix;
  bool numeric = true;
};
constexpr IndexedFamily kIndexedFamilies[] = {
    {"worker.", "psp_worker_", "worker", "per worker"},
    {"ingress.shard.", "psp_ingress_shard_", "shard", "per socket shard"},
    {"fleet.server.", "psp_fleet_server_", "server", "per fleet member"},
    {"scheduler.type.", "psp_scheduler_type_", "type", "per request type",
     false},
    {"engine.type.", "psp_engine_type_", "type", "per request type", false},
    {"deadline.type.", "psp_deadline_type_", "type", "per request type",
     false},
};
constexpr size_t kNumIndexedFamilies = std::size(kIndexedFamilies);

// Splits `name` into (index, field) for `family`; false for any other shape.
bool SplitIndexedMetric(const std::string& name, const IndexedFamily& family,
                        std::string* index, std::string* field) {
  const size_t prefix_len = std::strlen(family.prefix);
  if (name.compare(0, prefix_len, family.prefix) != 0) {
    return false;
  }
  const size_t dot =
      family.numeric ? name.find('.', prefix_len) : name.rfind('.');
  if (dot == std::string::npos || dot <= prefix_len ||
      dot + 1 >= name.size()) {
    return false;
  }
  for (size_t i = prefix_len; family.numeric && i < dot; ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  *index = name.substr(prefix_len, dot - prefix_len);
  *field = name.substr(dot + 1);
  return true;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendTypeHeader(std::string* out, const std::string& metric,
                      const char* type, const std::string& help) {
  *out += "# HELP " + metric + ' ' + help + '\n';
  *out += "# TYPE " + metric + ' ';
  *out += type;
  *out += '\n';
}

using Labels = std::vector<std::pair<const char*, std::string>>;

// One sample line: `name{l1="v1",l2="v2"} v`, or `name v` without labels.
void AppendSample(std::string* out, const std::string& metric,
                  const Labels& labels, const std::string& value) {
  *out += metric;
  const char* sep = "{";
  for (const auto& [label, label_value] : labels) {
    *out += sep;
    sep = ",";
    *out += label;
    *out += "=\"" + PrometheusLabelEscape(label_value) + "\"";
  }
  *out += labels.empty() ? " " : "} ";
  *out += value;
  *out += '\n';
}

// One instrument's samples: a counter or gauge value...
template <typename T>
void AppendInstrument(std::string* out, const std::string& metric,
                      const Labels& labels, T value) {
  AppendSample(out, metric, labels, std::to_string(value));
}

// ...or a histogram as a quantile summary: p50/p99/p99.9, _sum and _count.
void AppendInstrument(std::string* out, const std::string& metric,
                      const Labels& labels, const Histogram& hist) {
  const struct {
    const char* q;
    double p;
  } quantiles[] = {{"0.5", 50.0}, {"0.99", 99.0}, {"0.999", 99.9}};
  for (const auto& q : quantiles) {
    Labels with_quantile = labels;
    with_quantile.emplace_back("quantile", q.q);
    AppendSample(out, metric, with_quantile,
                 std::to_string(hist.Count() > 0 ? hist.Percentile(q.p) : 0));
  }
  AppendSample(out, metric + "_sum", labels,
               FormatDouble(hist.Mean() * static_cast<double>(hist.Count())));
  AppendSample(out, metric + "_count", labels, std::to_string(hist.Count()));
}

// Renders one instrument map as `prom_type` families, folding indexed names
// into one labelled family per field. `suffix` is "_total" for counters;
// `help_tail` ends every HELP line.
template <typename Map>
void RenderFamilies(std::string* out, const Map& values, const char* prom_type,
                    const char* suffix, const char* source_kind,
                    const char* help_tail = "") {
  // Per indexed family: field -> [(index, instrument)]. Plain names render
  // directly in map order.
  std::map<std::string,
           std::vector<std::pair<std::string, const typename Map::mapped_type*>>>
      folded[kNumIndexedFamilies];
  for (const auto& [name, value] : values) {
    std::string index, field;
    size_t f = 0;
    while (f < kNumIndexedFamilies &&
           !SplitIndexedMetric(name, kIndexedFamilies[f], &index, &field)) {
      ++f;
    }
    if (f < kNumIndexedFamilies) {
      folded[f][field].emplace_back(index, &value);
      continue;
    }
    const std::string metric = "psp_" + PrometheusMetricName(name) + suffix;
    AppendTypeHeader(out, metric, prom_type,
                     std::string(source_kind) + " \"" + name + "\"" +
                         help_tail);
    AppendInstrument(out, metric, {}, value);
  }
  for (size_t f = 0; f < kNumIndexedFamilies; ++f) {
    const IndexedFamily& family = kIndexedFamilies[f];
    for (const auto& [field, samples] : folded[f]) {
      const std::string metric =
          family.metric_prefix + PrometheusMetricName(field) + suffix;
      AppendTypeHeader(out, metric, prom_type,
                       std::string(source_kind) + " \"" + family.prefix +
                           (family.numeric ? "<N>." : "<type>.") + field +
                           "\" " + family.help_suffix + help_tail);
      for (const auto& [index, value] : samples) {
        AppendInstrument(out, metric, {{family.label, index}}, *value);
      }
    }
  }
}

void RenderSummaries(std::string* out, const TelemetrySnapshot& snap) {
  RenderFamilies(out, snap.histograms, "summary", "", "histogram",
                 " as quantile summary");
}

// The latest closed time-series interval: per-type windowed gauges (the
// live "what is each type doing right now" view DARC analysis needs).
void RenderLatestInterval(std::string* out, const TelemetrySnapshot& snap) {
  if (snap.timeseries.empty()) {
    return;
  }
  const IntervalRecord& rec = snap.timeseries.back();

  const struct {
    const char* metric;
    std::string value;
    const char* help;
  } scalars[] = {
      {"psp_interval_seq", std::to_string(rec.seq),
       "sequence number of the latest closed time-series interval"},
      {"psp_interval_end_nanos", std::to_string(rec.end),
       "end timestamp of the latest closed interval"},
      {"psp_interval_reservation_updates",
       std::to_string(rec.reservation_updates),
       "DARC reservation updates applied within the latest interval"},
      {"psp_interval_arrival_rate_rps", FormatDouble(rec.arrival_rate_rps),
       "arrival rate over the latest interval, all types"},
      {"psp_interval_completion_rate_rps",
       FormatDouble(rec.completion_rate_rps),
       "completion rate over the latest interval, all types"},
  };
  for (const auto& s : scalars) {
    AppendTypeHeader(out, s.metric, "gauge", s.help);
    AppendSample(out, s.metric, {}, s.value);
  }

  for (const TypeIntervalField& field : TypeIntervalFields()) {
    if (field.skip_if_all_zero &&
        std::none_of(rec.types.begin(), rec.types.end(),
                     [&](const TypeIntervalStats& t) {
                       return field.value(t) != 0;
                     })) {
      continue;
    }
    bool any = false;
    for (const TypeIntervalStats& t : rec.types) {
      if (field.skip_negative && field.value(t) < 0) {
        continue;
      }
      if (!any) {
        AppendTypeHeader(out, field.metric, "gauge", field.help);
        any = true;
      }
      AppendInstrument(out, field.metric,
                       {{"type", TypeNameOf(snap.type_names, t.type)}},
                       field.value(t));
    }
  }

  if (!rec.worker_busy_permille.empty()) {
    AppendTypeHeader(out, "psp_worker_interval_busy_permille", "gauge",
                     "per-worker busy fraction over the latest interval, "
                     "permille");
    for (size_t w = 0; w < rec.worker_busy_permille.size(); ++w) {
      AppendSample(out, "psp_worker_interval_busy_permille",
                   {{"worker", std::to_string(w)}},
                   std::to_string(rec.worker_busy_permille[w]));
    }
  }
  if (!rec.worker_state_permille.empty()) {
    AppendTypeHeader(out, "psp_interval_worker_state_permille", "gauge",
                     "aggregate worker-time share by ledger state over the "
                     "latest interval, permille (sums to ~1000)");
    for (size_t s = 0;
         s < rec.worker_state_permille.size() && s < kNumWorkerTimeStates;
         ++s) {
      AppendSample(
          out, "psp_interval_worker_state_permille",
          {{"state", WorkerTimeStateName(static_cast<WorkerTimeState>(s))}},
          std::to_string(rec.worker_state_permille[s]));
    }
  }
}

// The worker time-provenance ledger: cumulative wall time per slot,
// decomposed into exhaustive states (the samples of one slot sum to its
// wall time), plus the typed split of busy+steal time.
void RenderWorkerTime(std::string* out, const TelemetrySnapshot& snap) {
  if (snap.worker_time.empty()) {
    return;
  }
  AppendTypeHeader(out, "psp_worker_time_ns", "gauge",
                   "cumulative wall time per slot by time-ledger state "
                   "(one slot's samples sum to its wall time)");
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    for (size_t s = 0; s < kNumWorkerTimeStates; ++s) {
      AppendSample(
          out, "psp_worker_time_ns",
          {{"worker", std::to_string(rec.slot)},
           {"role", rec.role},
           {"state", WorkerTimeStateName(static_cast<WorkerTimeState>(s))}},
          std::to_string(rec.state_ns[s]));
    }
  }
  bool any_busy = false;
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    if (rec.BusyNs() > 0 || !rec.busy_type_ns.empty()) {
      any_busy = true;
      break;
    }
  }
  if (!any_busy) {
    return;
  }
  AppendTypeHeader(out, "psp_worker_busy_type_ns", "gauge",
                   "busy+steal time per slot split by request type "
                   "(type=\"untyped\" is the unattributed remainder)");
  for (const WorkerTimeRecord& rec : snap.worker_time) {
    uint64_t typed = 0;
    for (const auto& [type_name, ns] : rec.busy_type_ns) {
      AppendSample(out, "psp_worker_busy_type_ns",
                             {{"worker", std::to_string(rec.slot)},
                              {"type", type_name}},
                             std::to_string(ns));
      typed += ns;
    }
    const uint64_t busy = rec.BusyNs();
    if (busy > typed) {
      AppendSample(out, "psp_worker_busy_type_ns",
                             {{"worker", std::to_string(rec.slot)},
                              {"type", "untyped"}},
                             std::to_string(busy - typed));
    }
  }
}

// Splits a page at '\n'; a trailing newline ends the last line.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      eol = text.size();
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

// One input page of a federation. Samples gain server="<server>" as their
// first label (none when `server` is empty); a member's counters join the
// psp_fleet_* sums and the page counts toward psp_fleet_servers.
struct FederationSource {
  const std::string* page;
  std::string server;
  bool member;
};

// Merges pages family by family: each family's HELP/TYPE comes from the first
// page declaring it and its samples from every page sit together in source
// order, in first-seen family order. Then come the summed psp_fleet_*
// counter families, psp_fleet_servers and one terminal psp_up (every
// page's own psp_up is dropped).
std::string FederatePages(const std::vector<FederationSource>& sources) {
  struct Family {
    std::string name;
    std::string help;
    std::string type;
    std::vector<std::string> lines;
    // Member samples summed per label block, in first-seen order.
    std::vector<std::pair<std::string, double>> sums;
    bool integral = true;
  };
  std::vector<Family> families;
  std::map<std::string, size_t> index_of;
  const auto family_of = [&](const std::string& name) -> Family& {
    const auto [it, inserted] = index_of.emplace(name, families.size());
    if (inserted) {
      families.emplace_back();
      families.back().name = name;
    }
    return families[it->second];
  };

  size_t members = 0;
  for (const FederationSource& source : sources) {
    members += source.member ? 1 : 0;
    for (const std::string& line : SplitLines(*source.page)) {
      if (line.empty()) {
        continue;
      }
      if (line[0] == '#') {
        // "# HELP name text" / "# TYPE name kind"
        const bool is_help = line.compare(0, 7, "# HELP ") == 0;
        const bool is_type = line.compare(0, 7, "# TYPE ") == 0;
        const size_t name_end = line.find(' ', 7);
        if ((!is_help && !is_type) || name_end == std::string::npos) {
          continue;
        }
        Family& fam = family_of(line.substr(7, name_end - 7));
        std::string& slot = is_help ? fam.help : fam.type;
        if (slot.empty()) {
          slot = line.substr(name_end + 1);
        }
        continue;
      }
      PrometheusSample sample;
      if (!ParsePrometheusSample(line, &sample).empty() ||
          sample.name == "psp_up") {
        continue;
      }
      Family& fam = family_of(sample.name);
      std::string labels = source.server.empty()
                               ? sample.labels
                               : "server=\"" + source.server + "\"";
      if (!source.server.empty() && !sample.labels.empty()) {
        labels += "," + sample.labels;
      }
      fam.lines.push_back(sample.name +
                          (labels.empty() ? "" : "{" + labels + "}") + " " +
                          sample.value);
      char* end = nullptr;
      const double v = std::strtod(sample.value.c_str(), &end);
      if (!source.member || end == sample.value.c_str() || *end != '\0') {
        continue;
      }
      const auto sum = std::find_if(
          fam.sums.begin(), fam.sums.end(),
          [&](const auto& entry) { return entry.first == sample.labels; });
      if (sum != fam.sums.end()) {
        sum->second += v;
      } else {
        fam.sums.emplace_back(sample.labels, v);
      }
      fam.integral = fam.integral && v == std::trunc(v);
    }
  }

  std::string out;
  for (const Family& fam : families) {
    if (fam.lines.empty()) {
      continue;
    }
    if (!fam.help.empty()) {
      out += "# HELP " + fam.name + " " + fam.help + "\n";
    }
    if (!fam.type.empty()) {
      out += "# TYPE " + fam.name + " " + fam.type + "\n";
    }
    for (const std::string& line : fam.lines) {
      out += line + "\n";
    }
  }
  // Fleet roll-up: counters are meaningfully summable across servers.
  for (const Family& fam : families) {
    if (fam.type != "counter" || fam.sums.empty()) {
      continue;
    }
    const std::string fleet_name =
        "psp_fleet_" +
        (fam.name.compare(0, 4, "psp_") == 0 ? fam.name.substr(4) : fam.name);
    AppendTypeHeader(&out, fleet_name, "counter",
                     "Sum of " + fam.name + " across federated servers.");
    for (const auto& [labels, sum] : fam.sums) {
      char buf[64];
      if (fam.integral && sum < 9e15 && sum > -9e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(sum));
      } else {
        std::snprintf(buf, sizeof(buf), "%.9g", sum);
      }
      out += fleet_name + (labels.empty() ? "" : "{" + labels + "}") + " " +
             buf + "\n";
    }
  }
  AppendTypeHeader(&out, "psp_fleet_servers", "gauge",
                   "Endpoints merged into this page.");
  AppendSample(&out, "psp_fleet_servers", {}, std::to_string(members));
  AppendSample(&out, "psp_up", {}, "1");
  return out;
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string PrometheusLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string RenderPrometheusText(const TelemetrySnapshot& snapshot) {
  std::string out;
  out.reserve(8192);
  RenderFamilies(&out, snapshot.counters, "counter", "_total", "counter");
  RenderFamilies(&out, snapshot.gauges, "gauge", "", "gauge");
  RenderSummaries(&out, snapshot);
  RenderLatestInterval(&out, snapshot);
  RenderWorkerTime(&out, snapshot);
  // Always-present marker so a scrape of an idle server is still non-empty
  // and scrapers can assert liveness.
  AppendTypeHeader(&out, "psp_up", "gauge", "introspection plane liveness");
  AppendSample(&out, "psp_up", {}, "1");
  return out;
}

std::string ParsePrometheusSample(const std::string& line,
                                  PrometheusSample* out) {
  size_t i = 0;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) ||
          line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  if (i == 0 || std::isdigit(static_cast<unsigned char>(line[0]))) {
    return "bad metric name";
  }
  out->name = line.substr(0, i);
  out->labels.clear();
  if (i < line.size() && line[i] == '{') {
    const size_t open = i;
    bool in_quotes = false;
    bool escaped = false;
    for (++i; i < line.size(); ++i) {
      const char c = line[i];
      if (escaped) {
        escaped = false;
      } else if (in_quotes && c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_quotes = !in_quotes;
      } else if (!in_quotes && c == '}') {
        break;
      }
    }
    if (i >= line.size()) {
      return "unterminated labels";
    }
    out->labels = line.substr(open + 1, i - open - 1);
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    return "missing value separator";
  }
  out->value = line.substr(i + 1);
  return "";
}

std::string CheckExposition(const std::string& text) {
  std::set<std::string> typed;
  const std::vector<std::string> lines = SplitLines(text);
  bool any_sample = false;
  for (size_t n = 0; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    const std::string where = "line " + std::to_string(n + 1) + ": ";
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      if (line.compare(0, 7, "# TYPE ") == 0) {
        const std::string family = line.substr(7, line.find(' ', 7) - 7);
        if (!typed.insert(family).second) {
          return where + "second TYPE for family " + family;
        }
      } else if (line.compare(0, 7, "# HELP ") != 0) {
        return where + "comment is neither HELP nor TYPE";
      }
      continue;
    }
    PrometheusSample sample;
    if (const std::string problem = ParsePrometheusSample(line, &sample);
        !problem.empty()) {
      return where + problem;
    }
    char* end = nullptr;
    std::strtod(sample.value.c_str(), &end);
    if (end == sample.value.c_str() || *end != '\0') {
      return where + "bad sample value \"" + sample.value + "\"";
    }
    any_sample = true;
  }
  if (!any_sample) {
    return "no samples in exposition";
  }
  return "";
}

std::string FederateMetrics(const std::vector<std::string>& pages) {
  std::vector<FederationSource> sources;
  for (size_t i = 0; i < pages.size(); ++i) {
    sources.push_back({&pages[i], std::to_string(i), true});
  }
  return FederatePages(sources);
}

std::string RenderFleetPrometheusText(
    const std::string& policy, const std::map<std::string, uint64_t>& counters,
    const std::map<std::string, int64_t>& gauges,
    const std::vector<TelemetrySnapshot>& servers) {
  // The dispatcher's own page: the policy as an info-style gauge, then its
  // counters and gauges through the scalar path (fleet.* -> psp_fleet_*,
  // fleet.server.<N>.* -> {server="N"}).
  std::string head;
  AppendTypeHeader(&head, "psp_fleet_policy", "gauge",
                   "inter-server dispatch policy (info-style: value is "
                   "always 1)");
  AppendSample(&head, "psp_fleet_policy", {{"policy", policy}}, "1");
  RenderFamilies(&head, counters, "counter", "_total", "counter");
  RenderFamilies(&head, gauges, "gauge", "", "gauge");

  std::vector<std::string> pages;
  pages.reserve(servers.size());
  for (const TelemetrySnapshot& server : servers) {
    pages.push_back(RenderPrometheusText(server));
  }
  // The exact rack-wide histograms (Histogram::Merge, not a quantile
  // average), labelled server="merged" inside each family's block.
  TelemetrySnapshot rollup;
  std::string rollup_page;
  for (const TelemetrySnapshot& server : servers) {
    for (const auto& [name, hist] : server.histograms) {
      rollup.histograms[name].Merge(hist);
    }
  }
  RenderSummaries(&rollup_page, rollup);

  std::vector<FederationSource> sources;
  sources.push_back({&head, "", false});
  for (size_t i = 0; i < pages.size(); ++i) {
    sources.push_back({&pages[i], std::to_string(i), true});
  }
  sources.push_back({&rollup_page, "merged", false});
  return FederatePages(sources);
}

}  // namespace psp
