// psp_e2e: the repository's end-to-end benchmark. One command, four
// workloads, a fixed set of named metrics.
//
//   psp_e2e --workload udp-bimodal|udp-tiny|udp-deadline|sim-figures|all
//           [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//
// UDP workloads drive a fresh psp_e2e_server process per trial from this
// (pinned, single-threaded) open-loop client. Untraced runs report the
// end-to-end metrics: the highest offered rate that holds the workload's
// limit (bisected from the committed bracket, every verdict from two
// agreeing trials), goodput at the committed high rate, set-up time and
// server peak RSS; latency percentiles at the low and high rates go to the
// report's details. Traced runs
// (--trace 1) report the per-layer metrics instead: in-situ counters and
// lifecycle spans from traced and untraced trials at the high rate, the
// isolated layer harness (layers.h) and a DES slice; they also write one
// joined client+server Perfetto trace per workload. sim-figures runs the DES
// (sim.h).
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// and the full report (host block, trials, self-time table) is written to
// <out>/report-<workload>-seed<N>-trace<T>.json.
//
// Exit codes: 0 ok; 1 a correctness check failed (result still printed) or
// the command line was bad; 2 the host cannot give the benchmark its pinned
// four-core layout (nothing is published).
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/e2e/client.h"
#include "bench/e2e/host.h"
#include "bench/e2e/layers.h"
#include "bench/e2e/server_process.h"
#include "bench/e2e/sim.h"
#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"
#include "src/common/rng.h"
#include "src/introspect/tracejoin.h"
#include "src/telemetry/timeledger.h"

namespace psp {
namespace e2e {
namespace {

constexpr Nanos kServerReadyTimeout = 5 * kSecond;
constexpr Nanos kServerStopTimeout = 10 * kSecond;
constexpr Nanos kProbeTimeout = 2 * kSecond;
// Client-side sampling for traced trials: the server records exactly the
// requests the client marks, so both sides hold the same 1-in-16.
constexpr uint32_t kTraceEvery = 16;
// Capacity search: bisection in log-rate space to 2% resolution; every
// committed bracket is at most 1.02^16 wide, so four verdicts reach it.
constexpr int kBisectionSteps = 4;
constexpr double kResolution = 1.02;
// The search widens a bracket whose lower edge fails down to this share of
// the committed lower edge before it gives up.
constexpr double kLowestShare = 1.0 / 8;
constexpr Nanos kSelfCheck = 250 * kMillisecond;
constexpr int kSelfCheckAttempts = 3;
// Short trials per fixed rate, interleaved with the capacity search.
constexpr int kFixedRateTrials = 2;
// A host whose cores idled before the run needs about a second of load before
// its latency settles (the first trial after idle saw client lateness of
// hundreds of microseconds); every UDP run starts with a discarded trial.
constexpr Nanos kWarmUp = 1500 * kMillisecond;
constexpr const char* kSimFigures = "sim-figures";
// DES point size in --smoke runs.
constexpr uint64_t kSmokeSimRequests = 4000;

struct HostUnfit {
  std::string why;
};

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Declared once here; BENCHMARK.json lists the same names, and the smoke
// test checks that every one of them is reported.
const std::vector<MetricDecl> kEndToEnd = {
    {"capacity_rps", "1/s"},
    {"goodput_rps_high", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"client.lateness_p99_us", "us"},
    {"client.send_refused", "count"},
    {"client.echo_mismatch", "count"},
    {"net.rx_cpu_ns_per_dgram", "ns"},
    {"net.tx_dgrams_per_syscall", "count"},
    {"net.send_ns_per_dgram_b1", "ns"},
    {"net.send_ns_per_dgram_b16", "ns"},
    {"net.parse_ns", "ns"},
    {"net.wrap_ns", "ns"},
    {"net.format_ns", "ns"},
    {"net.rx_ring_full_drops", "count"},
    {"net.tx_drops", "count"},
    {"net.rx_malformed", "count"},
    {"core.classify_ns", "ns"},
    {"core.enqueue_ns", "ns"},
    {"core.dispatch_ns", "ns"},
    {"core.complete_ns", "ns"},
    {"core.queue_wait_p99_us.short", "us"},
    {"core.queue_wait_p99_us.long", "us"},
    {"core.reserved_idle_frac", "ratio"},
    {"core.stolen_frac", "ratio"},
    {"core.queue_drops", "count"},
    {"runtime.preprocess_p50_us", "us"},
    {"runtime.handoff_p50_us", "us"},
    {"runtime.handoff_p99_us", "us"},
    {"runtime.reply_p50_us", "us"},
    {"runtime.ring_hop_ns", "ns"},
    {"runtime.dispatcher_busy_frac", "ratio"},
    {"runtime.worker_busy_frac", "ratio"},
    {"apps.service_p50_us", "us"},
    {"apps.service_overrun_p99_us", "us"},
    {"common.pool_ns", "ns"},
    {"sched.shed_frac", "ratio"},
    {"sched.server_miss_frac", "ratio"},
    {"sched.enqueue_ns_edf", "ns"},
    {"sched.dispatch_ns_edf", "ns"},
    {"telemetry.trace_p50_delta_us", "us"},
    {"telemetry.joined_spans", "count"},
    {"sim.events_per_req", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.cascades_per_event", "ratio"},
    {"sim.backend_switches", "count"},
    {"sim.wheel_active", "ratio"},
    {"sim.ns_per_req.cfcfs", "ns"},
    {"sim.ns_per_req.darc", "ns"},
    {"sim.ns_per_req.edf", "ns"},
    {"sim.ns_per_req.fleet", "ns"},
};

const std::vector<MetricDecl>& Declared(bool traced) {
  return traced ? kPerLayer : kEndToEnd;
}

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = "bench/e2e/out";
};

// One workload's outcome in one mode (end-to-end or per-layer).
struct Result {
  std::string workload;
  bool traced = false;
  bool correct = true;
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> details;  // "key": value members of "details"

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// --- small numeric helpers ---------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Us(Nanos ns) {
  return ns == kInfiniteLatency ? INFINITY : static_cast<double>(ns) / 1e3;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Moves this (single-threaded) process onto `core` for the phase that
// follows: the client core for UDP trials, the DES core for simulation.
void PinTo(int core) {
  if (!PinCurrentThreadTo(core)) {
    throw HostUnfit{"cannot pin to core " + std::to_string(core)};
  }
}

std::string ServerBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string self = n > 0 ? std::string(buf, static_cast<size_t>(n)) : "";
  const size_t slash = self.rfind('/');
  return (slash == std::string::npos ? "." : self.substr(0, slash)) +
         "/psp_e2e_server";
}

// --- UDP trials ------------------------------------------------------------

struct TrialRun {
  std::string kind;  // "low", "high", "capacity", "traced", ...
  TrialResult client;
  ServerReport server;
  double setup_s = 0;
  std::vector<ServerTraceRecord> server_traces;
};

// Requests of a whole trial that failed as operations: refused by the kernel,
// answered wrongly, or lost. A request the server shed by admission control
// is the deadline tier at work, not a failed operation; it still counts as
// infinite latency in every percentile, limit and goodput.
uint64_t FailedOperations(const TrialRun& t) {
  const uint64_t shed = t.server.counter("deadline.shed");
  return t.client.refused + t.client.mismatched +
         (t.client.lost > shed ? t.client.lost - shed : 0);
}

// One trial against a fresh server process. Correctness problems land in
// *result; a transport-level failure returns false.
bool RunTrial(const Options& options, const UdpWorkload& workload,
              const std::string& kind, const TrialSpec& spec, bool traced,
              Result* result, std::vector<TrialRun>* trials) {
  TrialRun run;
  run.kind = kind;
  const std::string dump =
      options.out_dir + "/lifecycle-" + workload.name + ".json";
  std::vector<std::string> args = {"--workload", workload.name};
  if (traced) {
    args.insert(args.end(), {"--trace", "--dump", dump});
  }
  std::vector<int> cores = {0};
  for (uint32_t worker = 1; worker <= workload.workers; ++worker) {
    cores.push_back(static_cast<int>(worker));
  }
  ServerProcess server;
  std::string error =
      server.Start(ServerBinary(), args, cores, kServerReadyTimeout);
  if (!error.empty()) {
    if (server.exit_code() == kExitHostUnfit) {
      throw HostUnfit{"server threads could not be pinned to their cores"};
    }
    result->Fail(kind + " trial: " + error);
    return false;
  }
  OpenLoopClient client(workload);
  error = client.Connect(server.port());
  const Nanos first_response =
      error.empty() ? client.Probe(kProbeTimeout) : -1;
  if (first_response < 0) {
    result->Fail(kind + " trial: server never answered a probe " + error);
    return false;
  }
  run.setup_s = static_cast<double>(first_response - server.spawned_at()) / 1e9;
  run.client = client.Run(spec);
  error = server.Stop(&run.server, kServerStopTimeout);
  if (!error.empty()) {
    result->Fail(kind + " trial: " + error);
    return false;
  }
  if (run.client.mismatched > 0) {
    result->Fail(kind + " trial: " + std::to_string(run.client.mismatched) +
                 " responses did not echo their request");
  }
  const uint64_t malformed = run.server.counter("ingress.malformed") +
                             run.server.counter("runtime.malformed");
  if (malformed > 0) {
    result->Fail(kind + " trial: server saw " + std::to_string(malformed) +
                 " malformed datagrams");
  }
  if (traced) {
    std::ifstream in(dump);
    std::stringstream body;
    body << in.rdbuf();
    std::string parse_error;
    if (!ParseLifecycleJson(body.str(), &run.server_traces, &parse_error)) {
      result->Fail(kind + " trial: lifecycle dump: " + parse_error);
    }
    std::remove(dump.c_str());
  }
  std::printf("  %-9s %9.0f rps  p50 %8.1f us  p99 %9.1f us  p99.9 %9.1f us  "
              "late.p99 %5.1f us  gap %6.1f us  failed %llu/%llu  %s%s\n",
              kind.c_str(), spec.rate_rps, Us(run.client.p50),
              Us(run.client.p99), Us(run.client.p999),
              Us(run.client.lateness_p99), Us(run.client.max_response_gap),
              static_cast<unsigned long long>(run.client.failed),
              static_cast<unsigned long long>(run.client.attempted),
              run.client.limit_ok ? "limit ok" : "limit FAILS",
              run.client.valid ? "" : "  (disturbed)");
  std::fflush(stdout);
  trials->push_back(std::move(run));
  return true;
}

TrialSpec Spec(double rate, Nanos duration, uint64_t seed, uint64_t stream) {
  TrialSpec spec;
  spec.rate_rps = rate;
  spec.duration = duration;
  spec.warmup = std::min<Nanos>(500 * kMillisecond, duration / 5);
  spec.seed = Rng::StreamSeed(seed, stream);
  return spec;
}

std::string TrialsJson(const std::vector<TrialRun>& trials) {
  std::string out = "[";
  for (size_t i = 0; i < trials.size(); ++i) {
    const TrialResult& c = trials[i].client;
    out += std::string(i == 0 ? "" : ", ") + "{\"kind\": " +
           Quote(trials[i].kind) + ", \"rate_rps\": " + Num(c.rate_rps) +
           ", \"attempted\": " + std::to_string(c.attempted) +
           ", \"failed\": " + std::to_string(c.failed) +
           ", \"shed\": " +
           std::to_string(trials[i].server.counter("deadline.shed")) +
           ", \"p50_us\": " + Num(Us(c.p50)) + ", \"p99_us\": " +
           Num(Us(c.p99)) + ", \"p999_us\": " + Num(Us(c.p999)) +
           ", \"lateness_p99_us\": " + Num(Us(c.lateness_p99)) +
           ", \"max_response_gap_us\": " + Num(Us(c.max_response_gap)) +
           ", \"limit_ok\": " + (c.limit_ok ? "true" : "false") +
           ", \"valid\": " + (c.valid ? "true" : "false") +
           ", \"setup_s\": " + Num(trials[i].setup_s) +
           ", \"peak_rss_mb\": " + Num(trials[i].server.maxrss_mb) + "}";
  }
  return out + "]";
}

// Runs a discarded trial at the workload's low rate (see kWarmUp). Its
// correctness checks still count.
void WarmUp(const Options& options, const UdpWorkload& workload,
            Result* result) {
  std::vector<TrialRun> discarded;
  RunTrial(options, workload, "warm-up",
           Spec(workload.low_rps, kWarmUp, options.seed, 0), false, result,
           &discarded);
}

// The client's own ceiling: a trial against the self-echo at the bracket's
// top rate. A client that cannot keep its lateness there would report its
// own limit as the server's capacity.
bool ClientSustains(const UdpWorkload& workload, double rate, uint64_t seed,
                    Result* result) {
  TrialResult check;
  for (int attempt = 0; attempt < kSelfCheckAttempts; ++attempt) {
    OpenLoopClient client(workload);
    const std::string error = client.Connect(0);
    if (!error.empty()) {
      result->Fail("client self-check: " + error);
      return false;
    }
    check = client.Run(Spec(rate, kSelfCheck, seed, 900 + attempt));
    std::printf("  self-echo %9.0f rps  late.p99 %5.1f us  failed %llu/%llu\n",
                rate, Us(check.lateness_p99),
                static_cast<unsigned long long>(check.failed),
                static_cast<unsigned long long>(check.attempted));
    if (check.valid && check.failed == 0) {
      break;
    }
  }
  result->details.push_back("\"client_self_check\": {\"rate_rps\": " +
                            Num(rate) + ", \"lateness_p99_us\": " +
                            Num(Us(check.lateness_p99)) + ", \"failed\": " +
                            std::to_string(check.failed) + "}");
  if (!check.valid || check.failed > 0) {
    result->Fail("the client cannot sustain " + Num(rate) +
                 " rps (the bracket top) on its own core; capacity would "
                 "measure the client");
    return false;
  }
  return true;
}

// Highest rate whose limit holds, to kResolution. Each verdict takes two
// agreeing trials (at most three), so the reported rate has passed twice and
// one trial disturbed by the host cannot steer the search. The value
// returned is the rate the two passing trials' schedules actually offered,
// not the nominal probe rate.
//
// Bisection in log-rate space assumes the committed bracket's lower edge
// holds and its upper edge does not. When every bisection verdict failed,
// the search steps the lower edge down by the bracket's width until a
// verdict holds; when every one held, it steps the upper edge up until one
// fails, never past what the client sustains on its own echo. Bisection then
// resumes between the holding and the failing rate. Returns NaN, which fails
// the run, when the capacity lies below kLowestShare of the bracket or above
// the client's ceiling: a bracket edge is never published untried. `between`
// runs after every verdict.
double SearchCapacity(const Options& options, const UdpWorkload& workload,
                      Nanos trial_duration,
                      const std::function<void()>& between, Result* result,
                      std::vector<TrialRun>* trials) {
  const double width = workload.bracket_hi_rps / workload.bracket_lo_rps;
  double lo = workload.bracket_lo_rps;
  double hi = workload.bracket_hi_rps;
  bool lo_held = false;
  bool hi_failed = false;
  double best = NAN;
  uint64_t stream = 100;
  bool trial_broke = false;
  // One verdict at `rate`: lowers hi or raises lo (and sets best).
  const auto verdict = [&](double rate) {
    int passed = 0;
    int failed = 0;
    double offered = 0;  // summed over the passing trials
    while (passed < 2 && failed < 2 && !trial_broke) {
      trial_broke = !RunTrial(options, workload, "capacity",
                              Spec(rate, trial_duration, options.seed,
                                   stream++),
                              false, result, trials);
      if (trial_broke) {
        break;
      }
      const TrialResult& c = trials->back().client;
      if (c.limit_ok) {
        ++passed;
        offered += c.offered_rps;
      } else {
        ++failed;
      }
    }
    if (passed == 2) {
      lo = rate;
      lo_held = true;
      best = offered / 2;
    } else {
      hi = rate;
      hi_failed = true;
    }
    between();
  };
  const auto bisect = [&] {
    while (hi / lo > kResolution && !trial_broke) {
      verdict(std::sqrt(lo * hi));
    }
  };
  bisect();
  while (!lo_held && !trial_broke) {
    if (lo < workload.bracket_lo_rps * kLowestShare) {
      result->problems.push_back("capacity lies below " + Num(lo) +
                                 " rps, far under the bracket; not measured");
      return NAN;
    }
    const double edge = lo;
    verdict(edge);
    if (!lo_held) {
      lo = edge / width;
    }
  }
  while (!hi_failed && !trial_broke) {
    if (hi > workload.bracket_hi_rps &&
        !ClientSustains(workload, hi, options.seed, result)) {
      result->problems.push_back("capacity lies above " + Num(lo) +
                                 " rps, beyond what the client sustains; "
                                 "not measured");
      return NAN;
    }
    const double edge = hi;
    verdict(edge);
    if (!hi_failed) {
      hi = edge * width;
    }
  }
  bisect();
  return trial_broke ? NAN : best;
}

// Short trials at one fixed rate, each against a fresh server, spread over
// the whole run (the host's speed drifts over seconds). p50 and p99 are
// medians over every percentile window of every trial (see
// TrialResult::window_p99), p99.9 the median over trials. Goodput and the
// failure counts cover every request.
class FixedRate {
 public:
  FixedRate(std::string kind, double rate, Nanos trial_duration,
            uint64_t stream)
      : kind_(std::move(kind)),
        rate_(rate),
        trial_duration_(trial_duration),
        stream_(stream) {}

  int trials() const { return trials_; }

  bool RunOne(const Options& options, const UdpWorkload& workload,
              Result* result, std::vector<TrialRun>* trials) {
    if (!RunTrial(options, workload, kind_,
                  Spec(rate_, trial_duration_, options.seed, stream_++), false,
                  result, trials)) {
      return false;
    }
    const TrialResult& c = trials->back().client;
    ++trials_;
    attempted += c.scheduled;
    failed += FailedOperations(trials->back());
    shed += trials->back().server.counter("deadline.shed");
    disturbed += c.valid ? 0 : 1;
    measured_ += static_cast<double>(c.attempted);
    within_ += static_cast<double>(c.within_limit);
    measured_s_ += c.measured_s;
    for (const Nanos v : c.window_p50) {
      p50_.push_back(Us(v));
    }
    for (const Nanos v : c.window_p99) {
      p99_.push_back(Us(v));
    }
    p999_.push_back(Us(c.p999));
    return true;
  }

  double p50_us() const { return Median(p50_); }
  double p99_us() const { return Median(p99_); }
  double p999_us() const { return Median(p999_); }
  double goodput_rps() const { return Ratio(within_, measured_s_); }
  // Post-warm-up requests outside the workload's limit.
  double missed_frac() const { return 1.0 - Ratio(within_, measured_); }

  // Whole trials: every request scheduled, failed operations, server sheds.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  int disturbed = 0;

 private:
  std::string kind_;
  double rate_;
  Nanos trial_duration_;
  uint64_t stream_;
  int trials_ = 0;
  std::vector<double> p50_, p99_, p999_;
  double measured_ = 0;  // post-warm-up requests
  double within_ = 0;
  double measured_s_ = 0;
};

// End-to-end metrics of a UDP workload.
Result RunUdpEndToEnd(const Options& options, const UdpWorkload& workload) {
  PinTo(kClientCore);
  Result result;
  result.workload = workload.name;
  const Nanos budget = static_cast<Nanos>(options.seconds * 1e9);
  std::vector<TrialRun> trials;
  const int count = options.smoke ? 1 : kFixedRateTrials;
  FixedRate low("low", workload.low_rps,
                options.smoke ? budget : budget * 6 / 100 / count, 10);
  FixedRate high("high", workload.high_rps, budget * 12 / 100 / count, 20);

  double capacity = NAN;
  if (options.smoke) {
    // One short trial, so that every metric name is reported; capacity is
    // the trial's offered rate. A smoke run measures nothing.
    if (low.RunOne(options, workload, &result, &trials)) {
      capacity = trials.back().client.offered_rps;
    }
    high = low;
  } else {
    const Nanos started = TscClock::Global().Now();
    WarmUp(options, workload, &result);
    const auto fixed_pair = [&] {
      if (low.trials() < count) {
        low.RunOne(options, workload, &result, &trials);
      }
      if (high.trials() < count) {
        high.RunOne(options, workload, &result, &trials);
      }
    };
    fixed_pair();
    if (ClientSustains(workload, workload.bracket_hi_rps, options.seed,
                       &result)) {
      // The search gets what the fixed-rate trials leave of the run; a
      // verdict takes about 2.3 trials and the bracket needs
      // kBisectionSteps of them. One fixed-rate pair follows each verdict.
      // A capacity outside the bracket takes more verdicts and a longer run.
      const Nanos fixed_left = budget * 18 / 100 * (count - 1) / count;
      const Nanos search = budget - (TscClock::Global().Now() - started) -
                           fixed_left;
      capacity = SearchCapacity(
          options, workload,
          std::max<Nanos>(kSelfCheck,
                          static_cast<Nanos>(static_cast<double>(search) /
                                             (2.3 * kBisectionSteps))),
          fixed_pair, &result, &trials);
    }
    while (low.trials() < count || high.trials() < count) {
      fixed_pair();
    }
  }
  result.attempted = low.attempted + high.attempted;
  result.failed = low.failed + high.failed;
  std::vector<double> setups;
  std::vector<double> rss;
  for (const TrialRun& t : trials) {
    setups.push_back(t.setup_s);
    rss.push_back(t.server.maxrss_mb);
  }
  result.metrics["capacity_rps"] = capacity;
  result.metrics["goodput_rps_high"] = high.goodput_rps();
  result.metrics["setup_s"] = Median(setups);
  result.metrics["peak_rss_mb"] = Median(rss);
  result.details.push_back("\"p50_us_low\": " + Num(low.p50_us()));
  result.details.push_back("\"p50_us_high\": " + Num(high.p50_us()));
  result.details.push_back("\"p99_us_low\": " + Num(low.p99_us()));
  result.details.push_back("\"p99_us_high\": " + Num(high.p99_us()));
  result.details.push_back("\"p999_us_low\": " + Num(low.p999_us()));
  result.details.push_back("\"p999_us_high\": " + Num(high.p999_us()));
  result.details.push_back("\"deadline_miss_frac_high\": " +
                           Num(high.missed_frac()));
  result.details.push_back("\"shed\": " + std::to_string(low.shed + high.shed));
  result.details.push_back("\"disturbed_fixed_rate_trials\": " +
                           std::to_string(low.disturbed + high.disturbed));
  result.details.push_back("\"trials\": " + TrialsJson(trials));
  return result;
}

// --- per-layer metrics -----------------------------------------------------

Nanos StageSpan(const ServerTraceRecord& r, TraceStage from, TraceStage to) {
  const Nanos a = r.stamp[static_cast<size_t>(from)];
  const Nanos b = r.stamp[static_cast<size_t>(to)];
  return a > 0 && b >= a ? b - a : -1;
}

std::vector<double> SpanUs(const std::vector<ServerTraceRecord>& records,
                           TraceStage from, TraceStage to,
                           const char* type_name = nullptr) {
  std::vector<double> out;
  for (const ServerTraceRecord& r : records) {
    if (type_name != nullptr && r.type_name != type_name) {
      continue;
    }
    const Nanos span = StageSpan(r, from, to);
    if (span >= 0) {
      out.push_back(static_cast<double>(span) / 1e3);
    }
  }
  return out;
}

void AddSimLayerMetrics(const std::vector<std::vector<SimPointRun>>& passes,
                        Result* result) {
  double generated = 0, run_ns = 0, events = 0, cascades = 0, switches = 0;
  double wheel = 0, points = 0;
  std::map<std::string, std::pair<double, double>> by_family;  // ns, reqs
  for (const auto& pass : passes) {
    for (const SimPointRun& p : pass) {
      generated += static_cast<double>(p.generated);
      run_ns += static_cast<double>(p.run_ns);
      events += static_cast<double>(p.events);
      cascades += static_cast<double>(p.cascades);
      switches += static_cast<double>(p.backend_switches);
      wheel += p.wheel_active ? 1 : 0;
      points += 1;
      by_family[p.family].first += static_cast<double>(p.run_ns);
      by_family[p.family].second += static_cast<double>(p.generated);
    }
  }
  result->metrics["sim.events_per_req"] = Ratio(events, generated);
  result->metrics["sim.ns_per_event"] = Ratio(run_ns, events);
  result->metrics["sim.cascades_per_event"] = Ratio(cascades, events);
  result->metrics["sim.backend_switches"] = switches;
  result->metrics["sim.wheel_active"] = Ratio(wheel, points);
  for (const char* family : {"cfcfs", "darc", "edf", "fleet"}) {
    result->metrics[std::string("sim.ns_per_req.") + family] =
        Ratio(by_family[family].first, by_family[family].second);
  }
}

// The joined client+server view of the traced trial: one Perfetto file and
// the per-layer self-time table (consecutive spans, so self time is each
// span's own duration).
void JoinTracedTrial(const Options& options, const TrialRun& trial,
                     Result* result, size_t* joined) {
  std::vector<ClientTraceRecord> client = trial.client.samples;
  JoinStats stats;
  const std::vector<JoinedSpan> spans =
      JoinTraces(client, trial.server_traces, &stats);
  const ClockOffsetEstimate clocks = EstimateClockOffset(client);
  *joined += stats.joined;
  const std::string path = options.out_dir + "/" + result->workload +
                           "-seed" + std::to_string(options.seed) +
                           ".perfetto.json";
  std::ofstream(path) << ExportJoinedTrace(spans, clocks);

  struct Layer {
    const char* name;
    std::vector<double> us;
  };
  std::vector<Layer> layers = {{"client_queue", {}}, {"wire_out", {}},
                               {"classify", {}},     {"enqueue", {}},
                               {"queue", {}},        {"handoff", {}},
                               {"service", {}},      {"reply", {}},
                               {"wire_back", {}}};
  constexpr TraceStage kStages[] = {
      TraceStage::kRx,         TraceStage::kClassified,
      TraceStage::kEnqueued,   TraceStage::kDispatched,
      TraceStage::kHandlerStart, TraceStage::kHandlerEnd, TraceStage::kTx};
  for (const JoinedSpan& s : spans) {
    if (!s.has_server || !clocks.valid) {
      continue;
    }
    layers[0].us.push_back(
        static_cast<double>(s.client.send_ns - s.client.due_ns) / 1e3);
    const Nanos rx = clocks.ToClientClock(s.server.stamp[0]);
    const Nanos tx = clocks.ToClientClock(s.server.stamp[6]);
    layers[1].us.push_back(static_cast<double>(rx - s.client.send_ns) / 1e3);
    for (size_t i = 0; i + 1 < std::size(kStages); ++i) {
      const Nanos span = StageSpan(s.server, kStages[i], kStages[i + 1]);
      if (span >= 0) {
        layers[2 + i].us.push_back(static_cast<double>(span) / 1e3);
      }
    }
    layers[8].us.push_back(static_cast<double>(s.client.recv_ns - tx) / 1e3);
  }
  std::printf("  self time per layer (joined spans %zu, clock uncertainty "
              "%.1f us):\n",
              stats.joined, static_cast<double>(clocks.uncertainty) / 1e3);
  std::string table = "[";
  for (size_t i = 0; i < layers.size(); ++i) {
    const double p50 = Median(layers[i].us);
    const double p99 = Quantile(layers[i].us, 0.99);
    std::printf("    %-13s p50 %9.2f us  p99 %9.2f us\n", layers[i].name, p50,
                p99);
    table += std::string(i == 0 ? "" : ", ") + "{\"layer\": " +
             Quote(layers[i].name) + ", \"p50_us\": " + Num(p50) +
             ", \"p99_us\": " + Num(p99) + "}";
  }
  result->details.push_back("\"self_time\": " + table + "]");
  result->details.push_back("\"perfetto\": " + Quote(path));
}

// Per-layer metrics of the UDP path and the isolated harness for `workload`
// at `rate`, within `budget`, reported (and their Perfetto file named) under
// `label`.
Result RunUdpPerLayer(const Options& options, const std::string& label,
                      const UdpWorkload& workload, double rate, Nanos budget) {
  PinTo(kClientCore);
  Result result;
  result.workload = label;
  std::vector<TrialRun> untraced;
  std::vector<TrialRun> traced;

  // Alternate untraced and traced trials at the same rate, so the p50 delta
  // is tracing's cost and not drift between the two halves.
  const int pairs = options.smoke ? 1 : 2;
  const Nanos trial = options.smoke ? budget : budget * 19 / 100;
  if (!options.smoke) {
    WarmUp(options, workload, &result);
  }
  for (int i = 0; i < pairs; ++i) {
    TrialSpec spec = Spec(rate, trial, options.seed, 10 + i);
    if (!RunTrial(options, workload, "untraced", spec, false, &result,
                  &untraced)) {
      return result;
    }
    spec.trace_every = kTraceEvery;
    if (!RunTrial(options, workload, "traced", spec, true, &result, &traced)) {
      return result;
    }
  }

  std::vector<ServerTraceRecord> records;
  std::vector<double> untraced_p50, traced_p50;
  std::vector<double> lateness;
  double refused = 0, mismatched = 0;
  std::map<std::string, double> counters;
  double worker_wall = 0, worker_busy = 0, reserved_idle = 0;
  double dispatcher_overhead = 0, dispatcher_spin = 0;
  for (std::vector<TrialRun>* set : {&untraced, &traced}) {
    for (const TrialRun& t : *set) {
      result.attempted += t.client.scheduled;
      result.failed += FailedOperations(t);
      lateness.push_back(Us(t.client.lateness_p99));
      refused += static_cast<double>(t.client.refused);
      mismatched += static_cast<double>(t.client.mismatched);
      (set == &traced ? traced_p50 : untraced_p50).push_back(Us(t.client.p50));
      for (const auto& [name, value] : t.server.counters) {
        counters[name] += static_cast<double>(value);
      }
      for (const LedgerRecord& l : t.server.ledger) {
        double wall = 0;
        for (const uint64_t ns : l.ns) {
          wall += static_cast<double>(ns);
        }
        if (l.role == "dispatcher") {
          dispatcher_overhead += static_cast<double>(
              l.ns[static_cast<size_t>(WorkerTimeState::kDispatchOverhead)]);
          dispatcher_spin += static_cast<double>(
              l.ns[static_cast<size_t>(WorkerTimeState::kPollSpin)]);
        } else {
          worker_wall += wall;
          worker_busy += static_cast<double>(
              l.ns[static_cast<size_t>(WorkerTimeState::kBusy)] +
              l.ns[static_cast<size_t>(WorkerTimeState::kSteal)]);
          reserved_idle += static_cast<double>(
              l.ns[static_cast<size_t>(WorkerTimeState::kReservedIdle)]);
        }
      }
    }
  }
  for (const TrialRun& t : traced) {
    records.insert(records.end(), t.server_traces.begin(),
                   t.server_traces.end());
  }

  std::map<std::string, double>& m = result.metrics;
  m["client.lateness_p99_us"] = Median(lateness);
  m["client.send_refused"] = refused;
  m["client.echo_mismatch"] = mismatched;
  const double rx = counters["ingress.rx_datagrams"];
  m["net.rx_cpu_ns_per_dgram"] = Ratio(counters["udp.net_cpu_nanos"], rx);
  m["net.tx_dgrams_per_syscall"] =
      Ratio(counters["ingress.tx_datagrams"], counters["ingress.tx_batches"]);
  m["net.rx_ring_full_drops"] = counters["ingress.ring_full_drops"];
  m["net.tx_drops"] = counters["ingress.tx_drops"];
  m["net.rx_malformed"] = counters["ingress.malformed"];

  // Queue wait of the shortest and the longest class (the same class on
  // single-type workloads).
  const RequestClass* shortest = &workload.classes.front();
  const RequestClass* longest = &workload.classes.front();
  for (const RequestClass& c : workload.classes) {
    shortest = c.spin < shortest->spin ? &c : shortest;
    longest = c.spin > longest->spin ? &c : longest;
  }
  m["core.queue_wait_p99_us.short"] =
      Quantile(SpanUs(records, TraceStage::kEnqueued, TraceStage::kDispatched,
                      shortest->name),
               0.99);
  m["core.queue_wait_p99_us.long"] =
      Quantile(SpanUs(records, TraceStage::kEnqueued, TraceStage::kDispatched,
                      longest->name),
               0.99);
  m["core.reserved_idle_frac"] = Ratio(reserved_idle, worker_wall);
  m["core.stolen_frac"] = Ratio(counters["scheduler.stolen_dispatches"],
                                counters["scheduler.dispatched"]);
  m["core.queue_drops"] =
      counters["scheduler.dropped"] - counters["deadline.shed"];
  m["runtime.preprocess_p50_us"] =
      Median(SpanUs(records, TraceStage::kRx, TraceStage::kEnqueued));
  const std::vector<double> handoff =
      SpanUs(records, TraceStage::kDispatched, TraceStage::kHandlerStart);
  m["runtime.handoff_p50_us"] = Median(handoff);
  m["runtime.handoff_p99_us"] = Quantile(handoff, 0.99);
  m["runtime.reply_p50_us"] =
      Median(SpanUs(records, TraceStage::kHandlerEnd, TraceStage::kTx));
  m["runtime.dispatcher_busy_frac"] =
      Ratio(dispatcher_overhead, dispatcher_overhead + dispatcher_spin);
  m["runtime.worker_busy_frac"] = Ratio(worker_busy, worker_wall);
  m["apps.service_p50_us"] = Median(
      SpanUs(records, TraceStage::kHandlerStart, TraceStage::kHandlerEnd));
  std::vector<double> overrun;
  for (const RequestClass& c : workload.classes) {
    for (const double us : SpanUs(records, TraceStage::kHandlerStart,
                                  TraceStage::kHandlerEnd, c.name)) {
      overrun.push_back(us - static_cast<double>(c.spin) / 1e3);
    }
  }
  m["apps.service_overrun_p99_us"] = Quantile(overrun, 0.99);
  m["sched.shed_frac"] = Ratio(counters["deadline.shed"], rx);
  m["sched.server_miss_frac"] =
      Ratio(counters["deadline.missed"],
            counters["deadline.missed"] + counters["deadline.met"]);
  m["telemetry.trace_p50_delta_us"] = Median(traced_p50) - Median(untraced_p50);

  size_t joined = 0;
  if (!traced.empty()) {
    JoinTracedTrial(options, traced.back(), &result, &joined);
  }
  m["telemetry.joined_spans"] = static_cast<double>(joined);

  std::vector<LayerCost> costs;
  const std::string error = MeasureLayers(
      workload, options.seed,
      options.smoke ? 100 * kMillisecond : budget * 10 / 100, &costs);
  if (!error.empty()) {
    result.Fail("layer harness: " + error);
  }
  std::string isolated = "[";
  for (const LayerCost& c : costs) {
    m[c.metric] = c.tsc_ns;
    isolated += std::string(isolated.size() > 1 ? ", " : "") +
                "{\"metric\": " + Quote(c.metric) + ", \"tsc_ns\": " +
                Num(c.tsc_ns) + ", \"cpu_ns\": " + Num(c.cpu_ns) + "}";
  }
  result.details.push_back("\"isolated\": " + isolated + "]");
  result.details.push_back("\"trials\": " +
                           TrialsJson(untraced) + ", \"traced_trials\": " +
                           TrialsJson(traced));
  return result;
}

// --- sim-figures -----------------------------------------------------------

Result RunSimEndToEnd(const Options& options) {
  PinTo(kSimCore);
  Result result;
  result.workload = kSimFigures;
  const uint64_t digest = SimReferenceDigest();
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(digest));
  std::printf("  reference digest %s (committed 0x%016llx)\n", hex,
              static_cast<unsigned long long>(kSimDigest));
  result.details.push_back(std::string("\"digest\": ") + Quote(hex));
  if (digest != kSimDigest) {
    result.Fail(std::string("DES reference digest ") + hex +
                " differs from the committed one");
  }
  const auto passes = RunSimFigures(
      options.seed, static_cast<Nanos>(options.seconds * 1e9), 1,
      options.smoke ? kSmokeSimRequests : kSimRequestsPerPoint);

  // capacity_rps is the DES's one speed figure: simulated requests per wall
  // second of the fastest pass. Every pass does the same work, and the host
  // only ever slows one down, so the fastest is the steadiest estimate (over
  // 10 runs its quartile spread was a third of the median pass's).
  // goodput_rps_high is what the figures plot, not a speed: EDF's simulated
  // deadline-meeting completions per simulated second at load 0.9.
  std::vector<double> rate, setup, edf_goodput;
  for (const auto& pass : passes) {
    double generated = 0, run_ns = 0, construct = 0;
    for (const SimPointRun& p : pass) {
      generated += static_cast<double>(p.generated);
      run_ns += static_cast<double>(p.run_ns);
      construct += static_cast<double>(p.construct_ns);
      result.attempted += p.generated;
      result.failed += p.drops;
      if (p.family == "edf" && p.load == 0.9) {
        edf_goodput.push_back(p.sim_goodput_rps);
      }
    }
    rate.push_back(Ratio(generated, run_ns / 1e9));
    setup.push_back(construct / 1e9);
  }
  std::printf("  %zu passes of %zu points\n", passes.size(),
              passes.empty() ? size_t{0} : passes.front().size());
  result.metrics["capacity_rps"] = Quantile(rate, 1.0);
  result.metrics["goodput_rps_high"] = Median(edf_goodput);
  result.metrics["setup_s"] = Median(setup);
  result.metrics["peak_rss_mb"] = PeakRssMb();
  result.details.push_back("\"passes\": " + std::to_string(passes.size()));
  result.details.push_back("\"median_pass_req_per_s\": " + Num(Median(rate)));
  return result;
}

// Every per-layer metric for workload `label`: the UDP layers of `udp` at
// `rate` over `udp_share` of the run, the DES layer from passes over the
// rest.
Result RunPerLayer(const Options& options, const std::string& label,
                   const UdpWorkload& udp, double rate, double udp_share) {
  const Nanos budget = static_cast<Nanos>(options.seconds * 1e9);
  Result result = RunUdpPerLayer(options, label, udp, rate,
                                 static_cast<Nanos>(udp_share * budget));
  PinTo(kSimCore);
  AddSimLayerMetrics(
      RunSimFigures(options.seed,
                    static_cast<Nanos>((1 - udp_share) * budget), 1,
                    options.smoke ? kSmokeSimRequests : kSimRequestsPerPoint),
      &result);
  return result;
}

// --- output ----------------------------------------------------------------

std::string HostJson(const HostInfo& host) {
  return "{\"cores\": " + std::to_string(host.cores) +
         ", \"cpu_model\": " + Quote(host.cpu_model) +
         ", \"governor\": " + Quote(host.governor) +
         ", \"core_map\": {\"server_dispatcher_net\": [0], "
         "\"server_workers\": [1, 2], \"client\": [" +
         std::to_string(kClientCore) + "], \"des\": [" +
         std::to_string(kSimCore) + "]}" +
         ", \"perf_event_paranoid\": " + Quote(host.perf_event_paranoid) +
         ", \"pmu\": " + Quote(host.pmu) + "}";
}

std::string ResultJson(const Result& r, const HostInfo& host,
                       const Options& options) {
  std::string out = "{\"schema\": \"psp-e2e-report/1\", \"workload\": " +
                    Quote(r.workload) + ", \"seed\": " +
                    std::to_string(options.seed) + ", \"seconds\": " +
                    Num(options.seconds) + ", \"trace\": " +
                    (r.traced ? "1" : "0") + ", \"host\": " + HostJson(host) +
                    ", \"correct\": " + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"problems\": [";
  for (size_t i = 0; i < r.problems.size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quote(r.problems[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const MetricDecl& d : Declared(r.traced)) {
    const auto it = r.metrics.find(d.name);
    out += std::string(first ? "" : ", ") + Quote(d.name) +
           ": {\"value\": " + Num(it == r.metrics.end() ? NAN : it->second) +
           ", \"unit\": " + Quote(d.unit) + "}";
    first = false;
  }
  out += "}, \"details\": {";
  for (size_t i = 0; i < r.details.size(); ++i) {
    out += (i == 0 ? "" : ", ") + r.details[i];
  }
  return out + "}}";
}

void PrintMetrics(const Result& r) {
  const auto print = [&r](const MetricDecl& d) {
    const auto it = r.metrics.find(d.name);
    std::printf("  %-32s %14s %s\n", d.name,
                Num(it == r.metrics.end() ? NAN : it->second).c_str(), d.unit);
  };
  std::printf("%s %s metrics:\n", r.workload.c_str(),
              r.traced ? "per-layer" : "end-to-end");
  for (const MetricDecl& d : Declared(r.traced)) {
    print(d);
  }
  for (const std::string& p : r.problems) {
    std::printf("  note: %s\n", p.c_str());
  }
}

// A metric the run failed to produce is a broken run, not a zero.
void CheckComplete(Result* r) {
  for (const MetricDecl& d : Declared(r->traced)) {
    const auto it = r->metrics.find(d.name);
    if (it == r->metrics.end() || !std::isfinite(it->second)) {
      r->Fail(std::string("metric ") + d.name + " was not measured");
    }
  }
}

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      o->smoke = true;
      continue;
    }
    if (v == nullptr) {
      return false;
    }
    ++i;
    if (arg == "--workload") {
      o->workload = v;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o->seconds = std::atof(v);
    } else if (arg == "--trace") {
      o->trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--out") {
      o->out_dir = v;
    } else {
      return false;
    }
  }
  const bool known = o->workload == "all" || o->workload == kSimFigures ||
                     FindUdpWorkload(o->workload) != nullptr;
  return known && o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: %s --workload udp-bimodal|udp-tiny|udp-deadline|"
                 "sim-figures|all [--seed N] [--seconds S] [--trace 0|1] "
                 "[--smoke] [--out DIR]\n",
                 argv[0]);
    return 1;
  }
  const HostInfo host = ProbeHost();
  if (host.cores < kMinCores) {
    std::fprintf(stderr, "psp_e2e: %d cores online; the benchmark needs %d\n",
                 host.cores, kMinCores);
    return kExitHostUnfit;
  }
  ::mkdir(options.out_dir.c_str(), 0755);

  std::vector<std::string> workloads;
  if (options.workload == "all") {
    for (const UdpWorkload& w : UdpWorkloads()) {
      workloads.push_back(w.name);
    }
    workloads.push_back(kSimFigures);
  } else {
    workloads.push_back(options.workload);
  }
  // A single workload reports the mode --trace selects; "all" reports the
  // end-to-end metrics and, with --trace 1, the per-layer ones as well.
  std::vector<bool> modes;
  if (options.workload != "all") {
    modes = {options.trace};
  } else if (options.trace) {
    modes = {false, true};
  } else {
    modes = {false};
  }

  std::vector<Result> results;
  try {
    for (const std::string& name : workloads) {
      const bool sim = name == kSimFigures;
      for (const bool traced : modes) {
        std::printf("== %s (%s, seed %llu, %.0f s)\n", name.c_str(),
                    traced ? "per-layer" : "end-to-end",
                    static_cast<unsigned long long>(options.seed),
                    options.seconds);
        std::fflush(stdout);
        Result r;
        if (sim && traced) {
          // The DES has no sockets or threads: its traced run borrows a
          // udp-bimodal slice at the low rate for the runtime layers (60% of
          // the run) and reports the sim layer from the rest, so every
          // per-layer metric exists.
          const UdpWorkload& borrowed = *FindUdpWorkload("udp-bimodal");
          r = RunPerLayer(options, name, borrowed, borrowed.low_rps, 0.6);
        } else if (sim) {
          r = RunSimEndToEnd(options);
        } else {
          const UdpWorkload& w = *FindUdpWorkload(name);
          r = traced ? RunPerLayer(options, name, w, w.high_rps, 0.9)
                     : RunUdpEndToEnd(options, w);
        }
        r.traced = traced;
        CheckComplete(&r);
        PrintMetrics(r);
        const std::string path = options.out_dir + "/report-" + name +
                                 "-seed" + std::to_string(options.seed) +
                                 "-trace" + (traced ? "1" : "0") + ".json";
        std::ofstream(path) << ResultJson(r, host, options) << "\n";
        results.push_back(std::move(r));
      }
    }
  } catch (const HostUnfit& unfit) {
    std::fprintf(stderr, "psp_e2e: %s\n", unfit.why.c_str());
    return kExitHostUnfit;
  }

  // The one-line result. For "all", metric names are prefixed by workload.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics;
  for (const Result& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix =
        options.workload == "all" ? r.workload + "/" : std::string();
    for (const MetricDecl& d : Declared(r.traced)) {
      const auto it = r.metrics.find(d.name);
      metrics += std::string(metrics.empty() ? "" : ", ") +
                 Quote(prefix + d.name) + ": {\"value\": " +
                 Num(it == r.metrics.end() ? NAN : it->second) +
                 ", \"unit\": " + Quote(d.unit) + "}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace psp

int main(int argc, char** argv) { return psp::e2e::Main(argc, argv); }
