// The threaded Perséphone runtime (paper §4.3): a net-worker/dispatcher
// thread running the DARC scheduler, plus application worker threads, all
// communicating over lock-free SPSC channels and a shared NIC buffer pool.
//
// This is the execution engine a real deployment would use; the simulated NIC
// stands in for DPDK hardware queues (see DESIGN.md). An in-process load
// generator (LoadGenerator) plays the role of the client machines.
//
// Threading model:
//   * exactly one dispatcher thread: polls NIC RX, parses + classifies,
//     enqueues into typed queues, runs Algorithm 1, pushes work orders;
//   * N application worker threads: pop orders, invoke the registered
//     handler, format the response into the same buffer (zero-copy), signal
//     completion, then TX via their private network context.
#ifndef PSP_SRC_RUNTIME_PERSEPHONE_H_
#define PSP_SRC_RUNTIME_PERSEPHONE_H_

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/memory_pool.h"
#include "src/common/single_writer.h"
#include "src/core/classifier.h"
#include "src/core/scheduler.h"
#include "src/introspect/admin.h"
#include "src/introspect/outliers.h"
#include "src/net/ingress.h"
#include "src/net/nic.h"
#include "src/net/udp_ingress.h"
#include "src/profile/sampler.h"
#include "src/runtime/channel.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/timeledger.h"

namespace psp {

// Application logic for one request type. Receives the request payload (the
// bytes after the PSP header) and a scratch view of the same buffer to write
// the response payload into. Returns the response payload length.
using RequestHandler = std::function<uint32_t(
    const std::byte* payload, uint32_t payload_length, std::byte* response,
    uint32_t response_capacity)>;

struct RuntimeConfig {
  uint32_t num_workers = 2;
  SchedulerConfig scheduler;
  size_t channel_depth = 512;
  size_t nic_queue_depth = 1024;
  size_t pool_buffers = 8192;
  // Best-effort CPU pinning (the paper's testbed pins every role to a
  // dedicated core via isolcpus). Core map, modulo the online core count:
  //   core 0              dispatcher; in ring mode it polls NIC RX itself,
  //                       in udp mode it shares the core with net worker 0
  //                       (the paper's shared-hardware-thread arrangement,
  //                       §5.1)
  //   cores 1 .. T-1      udp net workers 1 .. T-1 (T = num_net_workers)
  //   core max(1,T) + w   application worker w (T = 0 in ring mode)
  // No-op when the machine has fewer than two cores or pinning is
  // unsupported. Idle threads yield, so the runtime stays live on machines
  // with fewer cores than threads.
  bool pin_threads = false;
  // Ingress frontend: where request frames come from (in-process ring vs
  // kernel UDP sockets), net-worker threading and poll pacing. See
  // src/net/ingress.h.
  IngressConfig ingress;
  // Observability: lifecycle-trace sampling + ring sizing (see
  // src/telemetry/telemetry.h). Counters are always on.
  TelemetryConfig telemetry;
  // Live introspection plane (off by default): loopback HTTP endpoint serving
  // /metrics, snapshots, lifecycle records and the profiler. See
  // src/introspect/admin.h and docs/OBSERVABILITY.md, "Live introspection".
  AdminConfig admin;
  // Tail-outlier capture: K slowest sampled requests per type per window,
  // served at /outliers.json. Requires tracing (the feed is sampled traces).
  OutlierConfig outliers;

  // Empty string = valid; otherwise a description of the misconfiguration.
  // Persephone's constructor calls this (plus scheduler.Validate with the
  // effective worker count) and throws std::invalid_argument.
  std::string Validate() const;
};

class Persephone {
 public:
  explicit Persephone(RuntimeConfig config);
  ~Persephone();

  Persephone(const Persephone&) = delete;
  Persephone& operator=(const Persephone&) = delete;

  // --- Setup (before Start) -------------------------------------------------
  void set_classifier(std::unique_ptr<RequestClassifier> classifier) {
    classifier_ = std::move(classifier);
  }

  // Registers a request type with its application handler. Seeds let DARC
  // start with a steady-state reservation; pass 0/0 to rely on profiling.
  TypeIndex RegisterType(TypeId wire_id, std::string name,
                         RequestHandler handler, Nanos expected_mean = 0,
                         double expected_ratio = 0);

  // Handler for UNKNOWN requests (optional; default echoes 0 bytes).
  void set_unknown_handler(RequestHandler handler);

  // --- Lifecycle --------------------------------------------------------------
  void Start();
  void Stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- Client-facing (the "wire") ---------------------------------------------
  SimulatedNic& nic() { return *nic_; }
  MemoryPool& pool() { return *pool_; }

  // UDP mode: the bound listen port (resolves an ephemeral bind; valid after
  // Start()). 0 in ring mode or before the sockets are open.
  uint16_t udp_port() const { return udp_ ? udp_->port() : 0; }
  // UDP mode: the socket frontend, for its counters (nullptr in ring mode).
  const UdpIngress* udp_ingress() const { return udp_.get(); }

  const DarcScheduler& scheduler() const { return *scheduler_; }

  // --- Observability ----------------------------------------------------------
  // The unified introspection surface: counters, gauges, per-worker
  // occupancy (worker_time), scheduler state and sampled lifecycle traces,
  // in one self-contained snapshot. Safe to call while the server runs.
  TelemetrySnapshot telemetry_snapshot() const;
  Telemetry& telemetry() { return *telemetry_; }
  const Telemetry& telemetry() const { return *telemetry_; }

  // The admin plane, when config.admin.enabled (nullptr otherwise). Started
  // and stopped with the runtime; admin_port() resolves an ephemeral bind.
  const AdminServer* admin() const { return admin_.get(); }
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }
  // The tail-outlier recorder, when config.outliers.enabled.
  const OutlierRecorder* outliers() const { return outliers_.get(); }

  uint32_t num_workers() const { return config_.num_workers; }

  // The worker time-provenance ledger: per-worker wall time decomposed into
  // busy/steal/reserved_idle/free_idle (worker slots, stamped by the
  // scheduler on the dispatcher thread) plus poll_spin/dispatch_overhead
  // (the dispatcher pseudo-slot, classified per loop iteration).
  const WorkerTimeLedger& time_ledger() const { return time_ledger_; }

  // The in-process sampling profiler (always constructed; does nothing until
  // armed via Start or the admin plane's POST /profile/start).
  CpuSampler& cpu_sampler() { return *cpu_sampler_; }

 private:
  void DispatcherLoop();
  void WorkerLoop(uint32_t worker_id);
  // Low-overhead time-series watchdog (only spawned when the recorder is
  // enabled): closes due intervals during idle stretches. Sleeps, never
  // busy-polls.
  void SamplerLoop();
  // Stamps queue depths, reserved shares and per-worker busy fractions into
  // a closing interval (recorder gauge hook; runs under the roll lock).
  void SampleTimeSeriesGauges(IntervalRecord* rec);
  // Ingress burst width (dispatcher RX batches): the DPDK-conventional 16 —
  // deep enough to amortise the shared-index update, shallow enough not to
  // add queueing delay at the dispatch stage.
  static constexpr size_t kIngressBurst = 16;

  // Net-worker threads this configuration runs (see the pin_threads core
  // map): ingress.num_net_workers in udp mode, 0 in ring mode.
  uint32_t NumNetThreads() const {
    return config_.ingress.mode == IngressMode::kUdp
               ? config_.ingress.num_net_workers
               : 0;
  }
  // Parses, classifies and enqueues one ingress frame (dispatcher thread).
  void IngestPacket(const PacketRef& packet, Nanos now, TraceSampler* sampler,
                    TimeSeriesRecorder* ts);
  // Absorbs every completion signal pending on the worker channels into the
  // scheduler (and the time series); returns whether any was pending.
  bool DrainCompletions(Nanos now, TimeSeriesRecorder* ts);

  // Builds the AdminHooks bundle wiring the endpoint to this runtime.
  AdminHooks MakeAdminHooks();

  RuntimeConfig config_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<MemoryPool> pool_;
  std::unique_ptr<SimulatedNic> nic_;
  std::unique_ptr<DarcScheduler> scheduler_;
  std::unique_ptr<RequestClassifier> classifier_;
  std::vector<std::unique_ptr<WorkerChannel>> channels_;
  // The ingress/egress seam (src/net/ingress.h). Exactly one owning pair is
  // populated per mode; the raw pointers are what the engine threads use:
  //   ring: nic_source_ + nic_sink_ (dispatcher polls RX itself)
  //   udp:  udp_ is both source and sink
  std::unique_ptr<NicIngressSource> nic_source_;
  std::unique_ptr<NicEgressSink> nic_sink_;
  std::unique_ptr<UdpIngress> udp_;
  IngressSource* ingress_source_ = nullptr;
  EgressSink* egress_sink_ = nullptr;
  std::vector<RequestHandler> handlers_;  // indexed by TypeIndex
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  // Per-worker counters (worker.N.*). Writer: worker N. Cache-line
  // aligned, so workers never write to a shared line. Busy time comes from
  // time_ledger_; egress time is outside it (the completion signal precedes
  // the send).
  struct alignas(64) WorkerCounters {
    SingleWriterCounter<uint64_t> requests;      // requests served
    SingleWriterCounter<uint64_t> egress_sends;  // SendBurst calls
    SingleWriterCounter<uint64_t> egress_nanos;  // wall time inside them
  };
  std::unique_ptr<WorkerCounters[]> worker_counters_;  // num_workers

  // Registry-owned counters resolved once at construction; completed/dropped
  // live in the scheduler (single source of truth, no double counting).
  Counter* rx_packets_ = nullptr;
  Counter* malformed_ = nullptr;
  uint64_t next_request_id_ = 0;

  // Time-series recorder slot per TypeIndex (empty when the recorder is off).
  std::vector<size_t> series_slots_;
  // Previous per-state ledger totals per worker for interval deltas; only
  // touched by the gauge hook (serialised by the recorder's roll lock).
  std::vector<std::array<uint64_t, kNumWorkerTimeStates>> ts_prev_state_;

  // Wall-time provenance: every worker's time decomposed into exhaustive
  // states, stamped by the scheduler (worker slots) and the dispatcher loop
  // (the pseudo-slot). Opened at construction, so sums track process wall.
  WorkerTimeLedger time_ledger_;
  // In-process SIGPROF sampling profiler; engine threads register themselves
  // (with their ledger state word) on entry to their loops.
  std::unique_ptr<CpuSampler> cpu_sampler_;

  // Live introspection plane (null unless enabled in the config).
  std::unique_ptr<OutlierRecorder> outliers_;
  std::unique_ptr<AdminServer> admin_;
};

}  // namespace psp

#endif  // PSP_SRC_RUNTIME_PERSEPHONE_H_
