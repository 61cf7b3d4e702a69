// Inter-server dispatch policies for the rack-scale fleet layer: the tier
// that RackSched (NSDI '20) layers on top of per-server schedulers. The
// fleet dispatcher (FleetSimulation's) asks the policy to pick one of N
// Perséphone servers for each arriving request.
//
// Policies (FleetPolicyKind):
//   * kRandom        uniform random server — the memoryless baseline.
//   * kRssHash       flow-affine steering: flow_hash -> server, the ToR-RSS
//                    arrangement (a flow always lands on the same server).
//   * kRoundRobin    strict rotation — equalises counts, ignores state.
//   * kPowerOfTwo    power-of-two-choices on sampled queue depth: probe two
//                    distinct random servers, dispatch to the shallower.
//   * kShortestQueue RackSched-style centralized shortest-queue over a
//                    bounded-staleness depth table (the tracker refreshes
//                    every depth_staleness nanos, so a decision may act on a
//                    view at most that old — the paper's "bounded staleness"
//                    tracking).
//
// Depth semantics: "depth" is the number of requests dispatched to a server
// and not yet completed or dropped (outstanding), the quantity a rack-level
// scheduler can actually observe without reaching into the server.
//
// Determinism: policies draw randomness only from the Rng the caller passes
// in. In the simulator that Rng is the fleet stream split from the fleet
// seed (Rng::Split), so same-seed fleet runs are bit-deterministic.
#ifndef PSP_SRC_FLEET_POLICY_H_
#define PSP_SRC_FLEET_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace psp {

enum class FleetPolicyKind {
  kRandom,
  kRssHash,
  kRoundRobin,
  kPowerOfTwo,
  kShortestQueue,
};

struct FleetPolicyConfig {
  FleetPolicyKind kind = FleetPolicyKind::kPowerOfTwo;
  // Age bound on the depth table the policy reads. 0 = probe live depths at
  // every decision (the po2c default: two RPC probes per request); > 0 = the
  // substrate refreshes the table on this period and decisions read the
  // stale copy (the centralized-tracker default, 10 µs).
  Nanos depth_staleness = 0;

  // The conventional staleness for `kind` (0 for the probing policies, 10 µs
  // for the centralized tracker).
  static FleetPolicyConfig Default(FleetPolicyKind kind);

  // Empty string = valid; otherwise a description of the misconfiguration.
  std::string Validate() const;
};

// Round-trippable policy names ("random", "rss", "rr", "po2c", "shortest-q")
// for CLIs and bench tables.
std::string FleetPolicyName(FleetPolicyKind kind);
bool ParseFleetPolicy(const std::string& name, FleetPolicyKind* out);

// The depth view a policy decision reads: one sampled depth per server.
// Whether the values are live or bounded-staleness copies is the substrate's
// contract (FleetPolicyConfig::depth_staleness).
struct FleetDepths {
  const int64_t* depth = nullptr;
  uint32_t num_servers = 0;

  int64_t Depth(uint32_t server) const { return depth[server]; }
};

class FleetDispatchPolicy {
 public:
  virtual ~FleetDispatchPolicy() = default;

  // Picks the server for one request. `flow_hash` is the request's RSS-style
  // flow hash (only kRssHash uses it); `rng` supplies all randomness.
  virtual uint32_t Pick(uint32_t flow_hash, Rng& rng,
                        const FleetDepths& depths) = 0;

  virtual std::string Name() const = 0;

  // True when the policy reads queue depths at all (lets substrates skip
  // depth bookkeeping refreshes for the oblivious policies).
  virtual bool uses_depths() const { return false; }

  static std::unique_ptr<FleetDispatchPolicy> Create(
      const FleetPolicyConfig& config, uint32_t num_servers);
};

}  // namespace psp

#endif  // PSP_SRC_FLEET_POLICY_H_
