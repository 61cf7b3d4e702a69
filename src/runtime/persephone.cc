#include "src/runtime/persephone.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <map>
#include <stdexcept>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <unistd.h>

#include "src/net/packet.h"

namespace psp {
namespace {

// Pins the calling thread to `cpu` (mod the online-core count); best effort.
void PinCurrentThread(uint32_t cpu) {
#if defined(__linux__)
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (cores <= 1) {
    return;  // nothing to separate onto
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % static_cast<uint32_t>(cores), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

// Registers the calling engine thread with the sampling profiler for its
// lifetime (loops have multiple exit paths; unregistering must not be
// skipped, or the sampler would keep a stale tid).
class ScopedProfileThread {
 public:
  ScopedProfileThread(CpuSampler* sampler, const char* role,
                      const std::atomic<uint32_t>* state_word,
                      uint32_t fallback_packed)
      : sampler_(sampler) {
    sampler_->RegisterCurrentThread(role, state_word, fallback_packed);
  }
  ~ScopedProfileThread() { sampler_->UnregisterCurrentThread(); }

  ScopedProfileThread(const ScopedProfileThread&) = delete;
  ScopedProfileThread& operator=(const ScopedProfileThread&) = delete;

 private:
  CpuSampler* sampler_;
};

}  // namespace

std::string RuntimeConfig::Validate() const {
  if (num_workers == 0) {
    return "runtime: num_workers must be > 0";
  }
  if (channel_depth == 0) {
    return "runtime: channel_depth must be > 0";
  }
  if (nic_queue_depth == 0) {
    return "runtime: nic_queue_depth must be > 0";
  }
  if (pool_buffers < nic_queue_depth) {
    return "runtime: pool_buffers must be >= nic_queue_depth (every RX "
           "descriptor needs a backing buffer)";
  }
  if (const std::string error = telemetry.Validate(); !error.empty()) {
    return error;
  }
  if (const std::string error = admin.Validate(); !error.empty()) {
    return error;
  }
  if (const std::string error = outliers.Validate(); !error.empty()) {
    return error;
  }
  if (outliers.enabled && !telemetry.enable_tracing) {
    return "runtime: outlier capture requires telemetry.enable_tracing (the "
           "feed is sampled lifecycle traces)";
  }
  if (const std::string error = ingress.Validate(); !error.empty()) {
    return "runtime: " + error;
  }
  // Validate the scheduler config with the worker count the runtime will
  // actually impose on it.
  SchedulerConfig effective = scheduler;
  effective.num_workers = num_workers;
  return effective.Validate();
}

Persephone::Persephone(RuntimeConfig config)
    : config_(std::move(config)), time_ledger_(config_.num_workers) {
  if (const std::string error = config_.Validate(); !error.empty()) {
    throw std::invalid_argument(error);
  }
  // One trace ring per worker thread (workers commit completed records).
  telemetry_ = std::make_unique<Telemetry>(config_.telemetry,
                                           config_.num_workers);
  rx_packets_ = &telemetry_->registry().GetCounter("runtime.rx_packets");
  malformed_ = &telemetry_->registry().GetCounter("runtime.malformed");
  pool_ = std::make_unique<MemoryPool>(kMaxPacketSize, config_.pool_buffers);
  // Queue 0: dispatcher RX; queues 1..N: per-worker TX contexts.
  nic_ = std::make_unique<SimulatedNic>(config_.num_workers + 1,
                                        config_.nic_queue_depth, pool_.get());
  SchedulerConfig sched = config_.scheduler;
  sched.num_workers = config_.num_workers;
  scheduler_ = std::make_unique<DarcScheduler>(sched);
  scheduler_->AttachTelemetry(telemetry_.get());
  // Wall-time provenance starts at construction (the ledger's notion of
  // "wall" is process lifetime, so state shares always sum to 100%); the
  // scheduler stamps worker transitions, the dispatcher loop its own.
  time_ledger_.Open(TscClock::Global().Now());
  scheduler_->AttachTimeLedger(&time_ledger_);
  cpu_sampler_ = std::make_unique<CpuSampler>();
  classifier_ = std::make_unique<HeaderFieldClassifier>();
  channels_.reserve(config_.num_workers);
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    channels_.push_back(std::make_unique<WorkerChannel>(config_.channel_depth));
  }
  worker_counters_ = std::make_unique<WorkerCounters[]>(config_.num_workers);
  // Wire the ingress/egress seam for the configured mode (see the member
  // comment in the header for the map).
  if (config_.ingress.mode == IngressMode::kUdp) {
    udp_ = std::make_unique<UdpIngress>(config_.ingress,
                                        config_.nic_queue_depth, pool_.get(),
                                        /*yield_on_idle=*/true);
    ingress_source_ = udp_.get();
    egress_sink_ = udp_.get();
  } else {
    nic_sink_ = std::make_unique<NicEgressSink>(nic_.get());
    egress_sink_ = nic_sink_.get();
    nic_source_ = std::make_unique<NicIngressSource>(nic_.get(), 0);
    ingress_source_ = nic_source_.get();
  }
  // Slot 0 (UNKNOWN) default handler: empty response.
  handlers_.push_back([](const std::byte*, uint32_t, std::byte*, uint32_t) {
    return 0u;
  });

  // Continuous observability: one time-series per registered type (keyed by
  // TypeIndex, so slot == TypeIndex) and engine gauges stamped at every
  // interval close.
  if (telemetry_->timeseries() != nullptr) {
    series_slots_.push_back(
        telemetry_->RegisterSeries(scheduler_->unknown_type(), "UNKNOWN"));
    telemetry_->timeseries()->set_gauge_sampler(
        [this](IntervalRecord* rec) { SampleTimeSeriesGauges(rec); });
  }
  if (config_.outliers.enabled) {
    outliers_ = std::make_unique<OutlierRecorder>(config_.outliers);
  }
  if (config_.admin.enabled) {
    admin_ = std::make_unique<AdminServer>(config_.admin, MakeAdminHooks());
  }
}

Persephone::~Persephone() { Stop(); }

TypeIndex Persephone::RegisterType(TypeId wire_id, std::string name,
                                   RequestHandler handler, Nanos expected_mean,
                                   double expected_ratio) {
  assert(!running());
  const TypeIndex index = scheduler_->RegisterType(
      wire_id, std::move(name), expected_mean, expected_ratio);
  handlers_.resize(std::max<size_t>(handlers_.size(), index + 1));
  handlers_[index] = std::move(handler);
  if (telemetry_->timeseries() != nullptr) {
    series_slots_.resize(std::max<size_t>(series_slots_.size(), index + 1));
    series_slots_[index] =
        telemetry_->RegisterSeries(index, scheduler_->type_name(index));
  }
  return index;
}

void Persephone::set_unknown_handler(RequestHandler handler) {
  handlers_[scheduler_->unknown_type()] = std::move(handler);
}

void Persephone::Start() {
  assert(!running());
  stop_.store(false, std::memory_order_release);
  // Bind the admin plane before any engine thread exists: a bind failure
  // (e.g. a fixed port already taken) aborts the start cleanly.
  if (admin_) {
    if (const std::string error = admin_->Start(); !error.empty()) {
      throw std::runtime_error(error);
    }
  }
  // Apply seeded reservations if every registered type carries hints;
  // otherwise DARC bootstraps through its c-FCFS profiling window.
  if (config_.scheduler.mode != PolicyMode::kCFcfs &&
      scheduler_->profiler().HasDemands()) {
    scheduler_->ActivateSeededReservation(TscClock::Global().Now());
  }
  if (udp_) {
    // Bind the shard sockets before any engine thread exists, so a failure
    // (port taken, bad address) aborts the start cleanly.
    if (const std::string error = udp_->Open(); !error.empty()) {
      if (admin_) {
        admin_->Stop();
      }
      throw std::runtime_error(error);
    }
    for (uint32_t i = 0; i < config_.ingress.num_net_workers; ++i) {
      threads_.emplace_back([this, i] {
        if (config_.pin_threads) {
          PinCurrentThread(i);  // shard 0 shares core 0 with the dispatcher
        }
        // No ledger slot: net workers poll sockets, so all their CPU
        // samples are tagged poll_spin.
        ScopedProfileThread profiled(
            cpu_sampler_.get(), "net", nullptr,
            WorkerTimeLedger::Pack(WorkerTimeState::kPollSpin,
                                   WorkerTimeLedger::kUntyped));
        udp_->RunNetWorker(i, stop_);
      });
    }
  }
  threads_.emplace_back([this] { DispatcherLoop(); });
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
  if (telemetry_->timeseries() != nullptr) {
    threads_.emplace_back([this] { SamplerLoop(); });
  }
  running_.store(true, std::memory_order_release);
}

void Persephone::Stop() {
  if (threads_.empty()) {
    if (admin_) {
      admin_->Stop();  // Start() may have bound it before a failed launch
    }
    return;
  }
  // Stop serving first so no scrape observes a half-torn-down engine.
  if (admin_) {
    admin_->Stop();
  }
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads_) {
    t.join();
  }
  threads_.clear();
  // Release frames the dispatcher never consumed (udp forwarding rings, NIC
  // RX) so the pool's buffer accounting balances across restarts.
  {
    PacketRef leftover[kIngressBurst];
    size_t n;
    while ((n = ingress_source_->PollBurst(leftover, kIngressBurst)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        pool_->FreeGlobal(leftover[i].data);
      }
    }
  }
  if (udp_) {
    udp_->Close();
  }
  // Drain completion signals the dispatcher had not absorbed before the stop
  // flag landed, so scheduler-side counts (the single source of truth for
  // `completed`) match the work the workers actually finished.
  const Nanos now = TscClock::Global().Now();
  DrainCompletions(now, telemetry_->timeseries());
  // Close the final (partial) interval so short runs still produce a series,
  // and flush any SLO alert raised by it.
  telemetry_->AdvanceTimeSeries(now, /*flush=*/true);
  running_.store(false, std::memory_order_release);
}

bool Persephone::DrainCompletions(Nanos now, TimeSeriesRecorder* ts) {
  // Burst drains: one channel-index update per batch of signals.
  CompletionSignal signals[WorkerChannel::kCompletionBurst];
  bool drained_any = false;
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    size_t n;
    while ((n = channels_[w]->PopCompletionBurst(
                signals, WorkerChannel::kCompletionBurst)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        const CompletionSignal& signal = signals[i];
        scheduler_->OnCompletion(w, signal.type, signal.service_time, now,
                                 signal.deadline);
        if (ts != nullptr) {
          ts->RecordCompletion(series_slots_[signal.type],
                               now - signal.arrival, signal.service_time, now);
          if (signal.deadline > 0 && now > signal.deadline) {
            ts->RecordDeadlineMiss(series_slots_[signal.type], now);
          }
        }
      }
      drained_any = true;
    }
  }
  return drained_any;
}

TelemetrySnapshot Persephone::telemetry_snapshot() const {
  TelemetrySnapshot snap = telemetry_->Snapshot();
  scheduler_->ExportTelemetry(&snap);
  snap.counters["nic.rx_drops"] += nic_->rx_drops();
  if (udp_) {
    // Socket-frontend counters, folded in here so psp_net stays free of the
    // telemetry dependency.
    const UdpIngressStats s = udp_->stats();
    snap.counters["ingress.rx_datagrams"] += s.rx_datagrams;
    snap.counters["ingress.malformed"] += s.rx_malformed;
    snap.counters["ingress.ring_full_drops"] += s.ring_full_drops;
    snap.counters["ingress.tx_datagrams"] += s.tx_datagrams;
    snap.counters["ingress.tx_batches"] += s.tx_batches;
    snap.counters["ingress.tx_drops"] += s.tx_drops;
    snap.counters["ingress.poll_sleeps"] += s.sleeps;
    snap.counters["ingress.poll_slept_nanos"] += s.slept_nanos;
    for (size_t i = 0; i < s.rx_per_shard.size(); ++i) {
      snap.counters["ingress.shard." + std::to_string(i) + ".rx_datagrams"] +=
          s.rx_per_shard[i];
    }
  }
  // The full time-provenance ledger: every worker's wall time decomposed
  // into exhaustive states, plus the dispatcher pseudo-slot (last record).
  snap.worker_time = time_ledger_.SnapshotTotals(
      TscClock::Global().Now(), [this](uint32_t type) {
        return type < scheduler_->num_types()
                   ? scheduler_->type_name(static_cast<TypeIndex>(type))
                   : std::string();
      });
  // busy_nanos and busy_permille both derive from the ledger
  // (dispatch-to-completion occupancy as the scheduler sees it), so every
  // exporter reports one busy time; see docs/OBSERVABILITY.md.
  for (uint32_t w = 0; w < config_.num_workers; ++w) {
    const std::string prefix = "worker." + std::to_string(w);
    const WorkerCounters& counters = worker_counters_[w];
    snap.counters[prefix + ".requests"] += counters.requests.Load();
    snap.counters[prefix + ".egress_sends"] += counters.egress_sends.Load();
    snap.counters[prefix + ".egress_nanos"] += counters.egress_nanos.Load();
    const WorkerTimeRecord& record = snap.worker_time[w];
    const uint64_t wall = record.WallNs();
    snap.gauges[prefix + ".busy_nanos"] =
        static_cast<int64_t>(record.BusyNs());
    snap.gauges[prefix + ".busy_permille"] =
        wall > 0 ? static_cast<int64_t>(record.BusyNs() * 1000 / wall) : 0;
  }
  return snap;
}

AdminHooks Persephone::MakeAdminHooks() {
  AdminHooks hooks;
  hooks.snapshot = [this] { return telemetry_snapshot(); };
  if (outliers_) {
    hooks.outliers_json = [this] {
      std::map<uint32_t, std::string> names;
      for (TypeIndex t = 0; t < scheduler_->num_types(); ++t) {
        names.emplace(t, scheduler_->type_name(t));
      }
      return outliers_->ToJson(names);
    };
  }
  hooks.profile_start = [this](const std::string& query,
                               std::string* error) -> std::string {
    int hz = 99;
    size_t pos = 0;
    while (pos <= query.size()) {
      size_t end = query.find('&', pos);
      if (end == std::string::npos) {
        end = query.size();
      }
      const std::string pair = query.substr(pos, end - pos);
      pos = end + 1;
      const size_t eq = pair.find('=');
      if (pair.empty() || eq == std::string::npos || eq == 0) {
        continue;
      }
      const std::string key = pair.substr(0, eq);
      const std::string value = pair.substr(eq + 1);
      char* parse_end = nullptr;
      if (key == "hz") {
        const long parsed = std::strtol(value.c_str(), &parse_end, 10);
        if (parse_end == value.c_str() || *parse_end != '\0' || parsed < 1 ||
            parsed > 10000) {
          *error = "profiler: hz must be an integer in [1, 10000]";
          return "";
        }
        hz = static_cast<int>(parsed);
      } else if (key == "dur") {
        // A capture runs until POST /profile/stop; a timed one is the
        // client's to run (pspctl profile HZ DUR).
        *error = "profiler: dur is not supported; stop with POST /profile/stop";
        return "";
      }
    }
    if (!cpu_sampler_->Start(hz)) {
      *error = "profile capture already running";
      return "";
    }
    telemetry_->RecordEvent(TscClock::Global().Now(),
                            "profile capture started");
    return "{\"ok\":true,\"hz\":" + std::to_string(hz) + "}\n";
  };
  hooks.profile_stop = [this](std::string* error) -> std::string {
    if (!cpu_sampler_->Stop()) {
      *error = "no profile capture running";
      return "";
    }
    return "{\"ok\":true,\"samples\":" +
           std::to_string(cpu_sampler_->total_samples()) +
           ",\"dropped\":" + std::to_string(cpu_sampler_->dropped_samples()) +
           "}\n";
  };
  hooks.profile_folded = [this] {
    return cpu_sampler_->Folded([this](uint32_t type) {
      return type < scheduler_->num_types()
                 ? scheduler_->type_name(static_cast<TypeIndex>(type))
                 : std::string();
    });
  };
  return hooks;
}

void Persephone::DispatcherLoop() {
  if (config_.pin_threads) {
    PinCurrentThread(0);  // shared with net I/O, as in the paper (§5.1)
  }
  const TscClock& clock = TscClock::Global();
  // 1-in-N lifecycle sampling; the decision is one branch per request, so
  // the untraced hot path stays within the paper's dispatch budget.
  TraceSampler sampler(telemetry_->sample_every());
  // Time-series hooks: nullptr when disabled, then the hot path pays nothing
  // beyond one pointer test per event.
  TimeSeriesRecorder* const ts = telemetry_->timeseries();
  PacketRef ingress[kIngressBurst];
  const uint32_t dispatcher_slot = WorkerTimeLedger::kDispatcherSlot;
  ScopedProfileThread profiled(
      cpu_sampler_.get(), "dispatcher",
      time_ledger_.packed_state(dispatcher_slot),
      WorkerTimeLedger::Pack(WorkerTimeState::kPollSpin,
                             WorkerTimeLedger::kUntyped));
  // Each iteration is classified after the fact — it was dispatch/completion
  // bookkeeping if anything progressed, an empty poll otherwise — and the
  // span up to this iteration's single clock read is charged accordingly
  // (zero extra clock reads on the hot path).
  WorkerTimeState iteration_state = WorkerTimeState::kPollSpin;
  while (!stop_.load(std::memory_order_acquire)) {
    const Nanos now = clock.Now();
    time_ledger_.AccountSpan(dispatcher_slot, iteration_state, now);

    // 1. Absorb completion signals (frees workers, feeds the profiler).
    bool progressed = DrainCompletions(now, ts);

    // 2. Ingest new packets in bursts (one ring-index update per batch):
    // parse, classify, enqueue into typed queues.
    size_t n_rx;
    while ((n_rx = ingress_source_->PollBurst(ingress, kIngressBurst)) > 0) {
      progressed = true;
      for (size_t rx = 0; rx < n_rx; ++rx) {
        IngestPacket(ingress[rx], now, &sampler, ts);
      }
    }

    // 3. Algorithm 1: push ready work to free workers.
    while (auto assignment = scheduler_->NextAssignment(now)) {
      WorkOrder order;
      order.request_id = assignment->request.id;
      order.type = assignment->request.type;
      order.arrival = assignment->request.arrival;
      order.payload = assignment->request.payload;
      order.payload_length = assignment->request.payload_length;
      order.wire_id = assignment->request.wire_id;
      order.client_id = assignment->request.client_id;
      order.deadline = assignment->request.deadline;
      order.trace = assignment->request.trace;
      if (order.trace.sampled != 0) {
        order.trace.Mark(TraceStage::kDispatched, clock.Now());
      }
      const bool pushed = channels_[assignment->worker]->PushOrder(order);
      assert(pushed && "worker has at most one outstanding order");
      (void)pushed;
      progressed = true;
    }

    iteration_state = progressed ? WorkerTimeState::kDispatchOverhead
                                 : WorkerTimeState::kPollSpin;
    if (!progressed) {
      // Let the source pace the idle round.
      ingress_source_->IdleHint();
    }
  }
  time_ledger_.AccountSpan(dispatcher_slot, iteration_state,
                           clock.Now());  // close the final span
}

void Persephone::IngestPacket(const PacketRef& packet, Nanos now,
                              TraceSampler* sampler, TimeSeriesRecorder* ts) {
  const TscClock& clock = TscClock::Global();
  rx_packets_->Add();
  const auto parsed = ParseRequestPacket(packet.data, packet.length);
  if (!parsed.has_value()) {
    malformed_->Add();
    pool_->FreeGlobal(packet.data);
    return;
  }
  const TypeId wire = classifier_->Classify(
      packet.data + kRequestOffset,
      packet.length - static_cast<uint32_t>(kRequestOffset));
  Request request;
  request.id = next_request_id_++;
  request.type = scheduler_->ResolveType(wire);
  request.arrival = now;
  request.payload = packet.data;
  request.payload_length = packet.length;
  request.wire_id = parsed->psp.request_id;
  request.client_id = parsed->psp.client_id;
  // Deadline stamping (deadline tier): an explicit wire budget from the
  // client wins; otherwise the per-type target configured on the scheduler
  // applies. Both are budgets relative to arrival; 0 means no deadline.
  if (parsed->psp.deadline_us != 0) {
    request.deadline =
        now + static_cast<Nanos>(parsed->psp.deadline_us) * kMicrosecond;
  } else if (const Nanos budget = scheduler_->DeadlineTargetOf(request.type);
             budget > 0) {
    request.deadline = now + budget;
  }
  // The client's in-band sampling election forces a lifecycle record (the
  // distributed-tracing join needs exactly these requests); local 1-in-N
  // sampling still ticks independently so server-only visibility survives
  // clients that never set the bit. A server configured without tracing
  // has no rings, so it ignores the flag.
  const bool wire_sampled =
      (parsed->psp.trace_flags & PspHeader::kFlagTraceSampled) != 0 &&
      config_.telemetry.enable_tracing;
  if (sampler->Tick() || wire_sampled) {
    request.trace.sampled = 1;
    // The NIC's hardware-style stamp captures RX-queue wait; fall back to
    // the poll instant for frames delivered without one.
    request.trace.Mark(TraceStage::kRx,
                       packet.rx_timestamp != 0 ? packet.rx_timestamp : now);
    const Nanos classified = clock.Now();
    request.trace.Mark(TraceStage::kClassified, classified);
    request.trace.Mark(TraceStage::kEnqueued, classified);
  }
  // Series semantics match the simulator: arrivals = offered load (recorded
  // whether or not flow control sheds the request).
  if (ts != nullptr) {
    ts->RecordArrival(series_slots_[request.type], now);
  }
  const DarcScheduler::EnqueueResult enq = scheduler_->TryEnqueue(request, now);
  if (enq != DarcScheduler::EnqueueResult::kOk) {
    // Flow-control shed (§4.3.3) or deadline admission shed; the scheduler
    // counts the drop either way.
    if (ts != nullptr) {
      ts->RecordDrop(series_slots_[request.type], now);
      if (enq == DarcScheduler::EnqueueResult::kShed) {
        ts->RecordDeadlineShed(series_slots_[request.type], now);
      }
    }
    pool_->FreeGlobal(packet.data);
  }
}

void Persephone::SamplerLoop() {
  // Watchdog cadence: a quarter of the interval width (floor 1 ms) keeps
  // closes timely without measurable CPU cost. The dispatcher also closes
  // intervals inline on the hot path, so this thread mostly matters during
  // idle stretches.
  const Nanos interval = telemetry_->config().timeseries.interval;
  Nanos tick = interval / 4;
  if (tick < kMillisecond) {
    tick = kMillisecond;
  }
  ScopedProfileThread profiled(
      cpu_sampler_.get(), "sampler", nullptr,
      WorkerTimeLedger::Pack(WorkerTimeState::kDispatchOverhead,
                             WorkerTimeLedger::kUntyped));
  const TscClock& clock = TscClock::Global();
  while (!stop_.load(std::memory_order_acquire)) {
    telemetry_->AdvanceTimeSeries(clock.Now());
    std::this_thread::sleep_for(std::chrono::nanoseconds(tick));
  }
}

void Persephone::SampleTimeSeriesGauges(IntervalRecord* rec) {
  // Runs under the recorder's roll lock (so ts_prev_state_ needs no further
  // guarding); everything read here is a relaxed atomic or mutex-published.
  for (TypeIntervalStats& stats : rec->types) {
    const auto type = static_cast<TypeIndex>(stats.type);
    if (type >= scheduler_->num_types()) {
      continue;
    }
    stats.queue_depth = static_cast<int64_t>(scheduler_->queue_depth(type));
    stats.reserved_workers = scheduler_->reserved_workers_of(type);
  }
  // Interval worker occupancy, derived from the time ledger.
  IntervalOccupancy(
      time_ledger_.SnapshotTotals(TscClock::Global().Now(), nullptr),
      config_.num_workers, &ts_prev_state_, &rec->worker_busy_permille,
      &rec->worker_state_permille);
}

void Persephone::WorkerLoop(uint32_t worker_id) {
  if (config_.pin_threads) {
    // App workers start after the net-worker cores (see the core map in the
    // header): base 1 covers ring mode, where the dispatcher polls RX itself.
    PinCurrentThread(std::max<uint32_t>(1, NumNetThreads()) + worker_id);
  }
  const TscClock& clock = TscClock::Global();
  WorkerChannel& channel = *channels_[worker_id];
  WorkerCounters& counters = worker_counters_[worker_id];
  // The scheduler (dispatcher thread) owns this worker's ledger slot; the
  // packed state word is what tags this thread's profile samples.
  ScopedProfileThread profiled(
      cpu_sampler_.get(), "worker", time_ledger_.packed_state(worker_id),
      WorkerTimeLedger::Pack(WorkerTimeState::kFreeIdle,
                             WorkerTimeLedger::kUntyped));

  while (!stop_.load(std::memory_order_acquire)) {
    WorkOrder order;
    if (!channel.PopOrder(&order)) {
      std::this_thread::yield();
      continue;
    }
    auto* frame = static_cast<std::byte*>(order.payload);
    const Nanos start = clock.Now();
    if (order.trace.sampled != 0) {
      order.trace.Mark(TraceStage::kHandlerStart, start);
    }

    // Application processing: payload in, response payload out — into the
    // same buffer region (zero-copy TX reuse, §4.3.1). Handlers must finish
    // reading the request before writing the response.
    std::byte* response_area = frame + kRequestOffset + sizeof(PspHeader);
    const uint32_t capacity = static_cast<uint32_t>(
        pool_->buffer_size() - kRequestOffset - sizeof(PspHeader));
    const std::byte* request_payload = response_area;
    const uint32_t request_payload_len =
        order.payload_length > kRequestOffset + sizeof(PspHeader)
            ? order.payload_length -
                  static_cast<uint32_t>(kRequestOffset + sizeof(PspHeader))
            : 0;
    const uint32_t response_len = handlers_[order.type](
        request_payload, request_payload_len, response_area, capacity);
    // Service is handler time only: the clock read that stamps kHandlerEnd
    // ends it, so the profiler's per-type means match the traced spans and
    // the DES's service times, which carry no egress.
    const Nanos handler_end = clock.Now();
    const Nanos service = handler_end - start;
    if (order.trace.sampled != 0) {
      order.trace.Mark(TraceStage::kHandlerEnd, handler_end);
    }
    const uint32_t frame_len = FormatResponseInPlace(frame, response_len);

    // Signal completion before the egress send (§4.3.4): the dispatcher's
    // drain, Algorithm 1 and the next order push then overlap the send
    // syscall instead of waiting for it.
    CompletionSignal signal{order.request_id, order.type, order.arrival,
                            service, order.deadline};
    const bool pushed = channel.PushCompletion(signal);
    assert(pushed);
    (void)pushed;

    const Nanos egress_start = clock.Now();
    if (order.trace.sampled != 0) {
      // Echo the server's rx/tx stamps onto the wire BEFORE the frame leaves
      // (the egress sink may hand the buffer to the kernel immediately), so
      // the client can decompose its RTT into wire time and server sojourn.
      order.trace.Mark(TraceStage::kTx, egress_start);
      StampServerTimestamps(
          frame, order.trace.stamp[static_cast<size_t>(TraceStage::kRx)],
          egress_start);
    }
    const PacketRef response{frame, frame_len};
    if (egress_sink_->SendBurst(&response, 1, worker_id + 1) == 0) {
      // Egress full (client not draining): release the buffer.
      pool_->FreeGlobal(frame);
    }
    counters.egress_nanos.Add(
        static_cast<uint64_t>(clock.Now() - egress_start));
    counters.egress_sends.Add(1);
    counters.requests.Add(1);
    if (order.trace.sampled != 0) {
      // Commit the completed lifecycle record into this worker's ring.
      RequestTrace record;
      record.request_id = order.request_id;
      record.type = order.type;
      record.worker = worker_id;
      record.wire_request_id = order.wire_id;
      record.client_id = order.client_id;
      record.stamp = order.trace.stamp;
      telemetry_->ring(worker_id).Push(record);
      if (outliers_) {
        // Sampled records only, so the mutex inside is touched 1-in-N times.
        outliers_->Offer(record, handler_end);
      }
    }
  }
}

}  // namespace psp
