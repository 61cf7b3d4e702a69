#include "bench/e2e/layers.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <ctime>
#include <initializer_list>
#include <map>

#include "bench/e2e/stats.h"
#include "src/common/memory_pool.h"
#include "src/common/rng.h"
#include "src/core/classifier.h"
#include "src/core/scheduler.h"
#include "src/net/packet.h"
#include "src/net/udp_ingress.h"
#include "src/runtime/channel.h"

namespace psp {
namespace e2e {
namespace {

constexpr int kCalls = 256;      // calls per layer per round
constexpr int kSendFrames = 64;  // datagrams per SendBurst layer per round
constexpr int kMinRounds = 5;
constexpr int kMaxRounds = 4000;

// Keeps results observable so batches of pure calls are not folded away.
volatile uint64_t g_sink = 0;

Nanos ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<Nanos>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

// Cost of one back-to-back clock-read pair, subtracted from call-by-call
// timings.
Nanos ClockPairOverhead() {
  const TscClock& clock = TscClock::Global();
  std::vector<double> samples;
  for (int i = 0; i < 1001; ++i) {
    const Nanos a = clock.Now();
    const Nanos b = clock.Now();
    samples.push_back(static_cast<double>(b - a));
  }
  return static_cast<Nanos>(Median(samples));
}

// TSC nanoseconds for kCalls calls of `body(i)`, whose results are summed
// into g_sink. `body` is a template argument so it inlines: an indirect call
// would cost more than the layers being timed.
template <typename Body>
Nanos TimedLoop(Body body) {
  uint64_t acc = 0;
  const Nanos t0 = TscClock::Global().Now();
  for (int i = 0; i < kCalls; ++i) {
    acc += body(i);
  }
  const Nanos elapsed = TscClock::Global().Now() - t0;
  g_sink = g_sink + acc;
  return elapsed;
}

SchedulerConfig SchedulerConfigFor(const UdpWorkload& workload,
                                   PolicyMode mode) {
  SchedulerConfig config;
  config.mode = mode;
  config.num_workers = 2;
  if (mode == PolicyMode::kEdf) {
    config.deadline.shed = true;
    for (const RequestClass& c : workload.classes) {
      DeadlineTarget target;
      target.type_name = c.name;
      // Workloads without wire budgets get a loose 20x-spin budget (never
      // below 100 us) so EDF has deadlines to order by.
      target.budget = c.budget_us > 0
                          ? static_cast<Nanos>(c.budget_us) * kMicrosecond
                          : std::max<Nanos>(100 * kMicrosecond, 20 * c.spin);
      config.deadline.targets.push_back(target);
    }
  }
  return config;
}

// A scheduler fed enqueue -> dispatch -> completion one request at a time, so
// the queue stays at depth <= 1 and admission never sheds: the per-call cost
// of the steady, unloaded path.
class SchedulerBench {
 public:
  SchedulerBench(const UdpWorkload& workload, PolicyMode mode,
                 const std::vector<TypeIndex>& types, Nanos overhead)
      : scheduler_(SchedulerConfigFor(workload, mode)),
        types_(types),
        overhead_(overhead) {
    for (const RequestClass& c : workload.classes) {
      scheduler_.RegisterType(c.wire_id, c.name, c.spin, c.ratio);
    }
    scheduler_.ActivateSeededReservation(0);
  }

  // One batch of kCalls; adds TSC ns to t[0] (enqueue), t[1] (dispatch) and
  // t[2] (completion).
  void Run(Nanos* t) {
    const TscClock& clock = TscClock::Global();
    for (int i = 0; i < kCalls; ++i) {
      Request request;
      request.id = next_id_++;
      request.type = types_[static_cast<size_t>(i) % types_.size()];
      request.arrival = now_;
      if (const Nanos budget = scheduler_.DeadlineTargetOf(request.type);
          budget > 0) {
        request.deadline = now_ + budget;
      }
      const Nanos t0 = clock.Now();
      scheduler_.TryEnqueue(request, now_);
      const Nanos t1 = clock.Now();
      const auto assignment = scheduler_.NextAssignment(now_);
      const Nanos t2 = clock.Now();
      if (assignment.has_value()) {
        scheduler_.OnCompletion(assignment->worker, assignment->request.type,
                                kMicrosecond, now_,
                                assignment->request.deadline);
      }
      const Nanos t3 = clock.Now();
      t[0] += t1 - t0;
      t[1] += std::max<Nanos>(0, t2 - t1 - overhead_);
      t[2] += std::max<Nanos>(0, t3 - t2 - overhead_);
      now_ += kMicrosecond;
    }
  }

 private:
  DarcScheduler scheduler_;
  const std::vector<TypeIndex>& types_;
  Nanos overhead_;
  Nanos now_ = kMillisecond;
  uint64_t next_id_ = 0;
};

// Per-call samples, one per round, of every metric the harness reports.
struct Samples {
  std::map<std::string, std::vector<double>> tsc;
  std::map<std::string, std::vector<double>> cpu;

  // Times one batch: `run(t)` adds TSC ns to t[k] for the k-th of `metrics`,
  // each of which made `calls` calls. The batch's thread CPU time is shared
  // out evenly over all of its calls.
  template <typename Run>
  void Record(std::initializer_list<const char*> metrics, int calls, Run run) {
    Nanos t[3] = {0, 0, 0};
    const Nanos cpu0 = ThreadCpuNow();
    run(t);
    const double cpu_per_call =
        static_cast<double>(ThreadCpuNow() - cpu0) /
        static_cast<double>(calls * static_cast<int>(metrics.size()));
    size_t k = 0;
    for (const char* metric : metrics) {
      tsc[metric].push_back(static_cast<double>(t[k++]) / calls);
      cpu[metric].push_back(cpu_per_call);
    }
  }
};

}  // namespace

std::string MeasureLayers(const UdpWorkload& workload, uint64_t seed,
                          Nanos budget, std::vector<LayerCost>* out) {
  const TscClock& clock = TscClock::Global();
  const Nanos overhead = ClockPairOverhead();

  // The workload's own frames: its class mix, drawn from the seed.
  MemoryPool frame_pool(kMaxPacketSize, kCalls);
  std::vector<std::byte*> frames;
  std::vector<uint32_t> lengths;
  std::vector<TypeIndex> types;
  FlowTuple flow;
  flow.src_addr = INADDR_LOOPBACK;
  flow.dst_addr = INADDR_LOOPBACK;
  flow.src_port = 40000;
  flow.dst_port = 9000;
  {
    Rng rng(seed);
    double total = 0;
    for (const RequestClass& c : workload.classes) {
      total += c.ratio;
    }
    for (int i = 0; i < kCalls; ++i) {
      double u = rng.NextDouble() * total;
      size_t k = 0;
      while (k + 1 < workload.classes.size() &&
             u >= workload.classes[k].ratio) {
        u -= workload.classes[k].ratio;
        ++k;
      }
      const RequestClass& c = workload.classes[k];
      RequestFrame frame;
      frame.flow = flow;
      frame.request_type = c.wire_id;
      frame.request_id = static_cast<uint64_t>(i);
      frame.deadline_us = c.budget_us;
      frame.payload = reinterpret_cast<const std::byte*>(&c.spin);
      frame.payload_length = sizeof(c.spin);
      std::byte* buf = frame_pool.AllocGlobal();
      frames.push_back(buf);
      lengths.push_back(BuildRequestPacket(frame, buf, frame_pool.buffer_size()));
      types.push_back(static_cast<TypeIndex>(k + 1));  // slot 0 = UNKNOWN
    }
  }

  HeaderFieldClassifier header_classifier;
  const RequestClassifier& classifier = header_classifier;
  SchedulerBench darc(workload, PolicyMode::kDarc, types, overhead);
  SchedulerBench edf(workload, PolicyMode::kEdf, types, overhead);
  WorkerChannel channel(512);
  MemoryPool pool(kMaxPacketSize, 1024);

  // SendBurst into a local sink socket the harness drains between batches;
  // loopback delivery runs inside the sender's syscall, as on the server.
  IngressConfig ingress_config;
  ingress_config.mode = IngressMode::kUdp;
  ingress_config.listen_port = 0;
  MemoryPool send_pool(kMaxPacketSize, 1024);
  UdpIngress ingress(ingress_config, 1024, &send_pool,
                     /*yield_on_idle=*/false);
  if (const std::string error = ingress.Open(); !error.empty()) {
    return error;
  }
  const int sink = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (sink < 0) {
    return "layers: sink socket failed";
  }
  sockaddr_in sink_addr{};
  sink_addr.sin_family = AF_INET;
  sink_addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t sink_len = sizeof(sink_addr);
  const int rcvbuf = 4 << 20;
  ::setsockopt(sink, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  auto* sink_sockaddr = reinterpret_cast<sockaddr*>(&sink_addr);
  if (::bind(sink, sink_sockaddr, sizeof(sink_addr)) != 0 ||
      ::getsockname(sink, sink_sockaddr, &sink_len) != 0) {
    ::close(sink);
    return "layers: sink bind failed";
  }
  // A request from the sink's address, formatted into the response the
  // worker would hand to the egress sink.
  std::vector<std::byte> response(kMaxPacketSize);
  {
    RequestFrame frame;
    frame.flow.src_addr = INADDR_LOOPBACK;
    frame.flow.dst_addr = INADDR_LOOPBACK;
    frame.flow.src_port = ntohs(sink_addr.sin_port);
    frame.flow.dst_port = ingress.port();
    frame.request_type = workload.classes.front().wire_id;
    frame.payload = reinterpret_cast<const std::byte*>(
        &workload.classes.front().spin);
    frame.payload_length = sizeof(Nanos);
    BuildRequestPacket(frame, response.data(), response.size());
    FormatResponseInPlace(response.data(), sizeof(Nanos));
  }
  const uint32_t response_len =
      static_cast<uint32_t>(kHeadersSize + sizeof(PspHeader) + sizeof(Nanos));

  // Interleaved rounds: every layer once per round, medians over rounds.
  Samples samples;
  const Nanos start = clock.Now();
  for (int round = 0;
       round < kMaxRounds &&
       (round < kMinRounds || clock.Now() - start < budget);
       ++round) {
    samples.Record({"net.parse_ns"}, kCalls, [&](Nanos* t) {
      t[0] = TimedLoop([&](int i) -> uint64_t {
        const auto parsed = ParseRequestPacket(frames[i], lengths[i]);
        return parsed.has_value() ? parsed->psp.request_id : 1;
      });
    });
    samples.Record({"net.wrap_ns"}, kCalls, [&](Nanos* t) {
      t[0] = TimedLoop([&](int i) -> uint64_t {
        return WrapDatagramFrame(
            frames[i], lengths[i] - static_cast<uint32_t>(kHeadersSize), flow,
            0);
      });
    });
    samples.Record({"net.format_ns"}, kCalls, [&](Nanos* t) {
      t[0] = TimedLoop([&](int i) -> uint64_t {
        const uint32_t length = FormatResponseInPlace(frames[i], sizeof(Nanos));
        StampServerTimestamps(frames[i], i, i + 1);
        return length;
      });
    });
    samples.Record({"core.classify_ns"}, kCalls, [&](Nanos* t) {
      t[0] = TimedLoop([&](int i) -> uint64_t {
        return classifier.Classify(frames[i] + kRequestOffset,
                                   lengths[i] - kRequestOffset);
      });
    });
    samples.Record({"core.enqueue_ns", "core.dispatch_ns", "core.complete_ns"},
                   kCalls, [&](Nanos* t) { darc.Run(t); });
    samples.Record({"sched.enqueue_ns_edf", "sched.dispatch_ns_edf"}, kCalls,
                   [&](Nanos* t) { edf.Run(t); });
    samples.Record({"runtime.ring_hop_ns"}, kCalls, [&](Nanos* t) {
      WorkOrder order;
      t[0] = TimedLoop([&](int i) -> uint64_t {
        order.request_id = static_cast<uint64_t>(i);
        channel.PushOrder(order);
        WorkOrder popped;
        channel.PopOrder(&popped);
        return popped.request_id;
      });
    });
    samples.Record({"common.pool_ns"}, kCalls, [&](Nanos* t) {
      t[0] = TimedLoop([&](int) -> uint64_t {
        std::byte* buf = pool.AllocGlobal();
        pool.FreeGlobal(buf);
        return buf != nullptr;
      });
    });
    samples.Record(
        {"net.send_ns_per_dgram_b1", "net.send_ns_per_dgram_b16"}, kSendFrames,
        [&](Nanos* t) {
          PacketRef refs[kSendFrames];
          std::byte drain[kMaxPacketSize];
          for (const size_t burst : {size_t{1}, size_t{16}}) {
            for (int i = 0; i < kSendFrames; ++i) {
              std::byte* buf = send_pool.AllocGlobal();
              std::memcpy(buf, response.data(), response_len);
              refs[i] = PacketRef{buf, response_len, 0, 0};
            }
            const Nanos t0 = clock.Now();
            for (size_t i = 0; i < kSendFrames; i += burst) {
              ingress.SendBurst(refs + i, burst, 1);
            }
            t[burst == 1 ? 0 : 1] += clock.Now() - t0;
            while (::recv(sink, drain, sizeof(drain), 0) > 0) {
            }
          }
        });
  }
  ::close(sink);
  for (const auto& [metric, tsc] : samples.tsc) {
    out->push_back(
        LayerCost{metric, Median(tsc), Median(samples.cpu[metric])});
  }
  return "";
}

}  // namespace e2e
}  // namespace psp
