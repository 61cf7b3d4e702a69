#include "src/net/ingress.h"

namespace psp {

std::string IngressConfig::Validate() const {
  const std::string poll_error = poll.Validate();
  if (!poll_error.empty()) {
    return "ingress: " + poll_error;
  }
  if (mode == IngressMode::kRing) {
    if (num_net_workers != 1) {
      return "ingress: ring mode has exactly one net worker (it is the "
             "in-process SimulatedNic path); num_net_workers applies to udp "
             "mode";
    }
    if (reuseport) {
      return "ingress: reuseport is a udp-mode socket option";
    }
    if (poll != PollControlConfig{}) {
      return "ingress: poll paces udp net workers; in ring mode the "
             "dispatcher polls the NIC itself and reads no poll setting";
    }
    return "";
  }
  // udp mode.
  if (listen_port < 0) {
    return "ingress: udp mode needs listen_port (0 binds an ephemeral port)";
  }
  if (listen_port > 65535) {
    return "ingress: listen_port out of range";
  }
  if (listen_addr.empty()) {
    return "ingress: udp mode needs listen_addr";
  }
  if (num_net_workers == 0) {
    return "ingress: udp mode needs at least one net worker";
  }
  if (reuseport && num_net_workers == 1) {
    return "ingress: reuseport shards one port across several net-worker "
           "sockets; with num_net_workers == 1 it does nothing — drop it or "
           "add workers";
  }
  if (num_net_workers > 1 && !reuseport) {
    return "ingress: several net workers need reuseport (they all bind the "
           "same address:port)";
  }
  if (socket_buffer_bytes <= 0) {
    return "ingress: socket_buffer_bytes must be positive";
  }
  return "";
}

}  // namespace psp
