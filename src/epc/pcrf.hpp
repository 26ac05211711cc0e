// Policy and Charging Rules Function (PCRF in 4G, PCF in 5G — §2.1).
//
// Holds per-flow policy rules: which bearer (QCI) a flow rides. The
// Tencent gaming-acceleration use case (§2.2) is exactly a PCRF
// interaction: the game's API call installs a rule binding its control
// flow to the QCI 7 bearer. The gateway consults the PCRF when
// forwarding, so rules take effect mid-stream.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "net/packet.hpp"

namespace tlc::epc {

struct PolicyRule {
  net::FlowId flow = 0;
  net::Qci qci = net::Qci::kQci9;
};

class Pcrf {
 public:
  /// Installs or replaces the rule for `rule.flow`.
  void install_rule(PolicyRule rule) { rules_[rule.flow] = rule; }

  /// Removes a flow's dedicated rule; it reverts to the default bearer.
  void remove_rule(net::FlowId flow) { rules_.erase(flow); }

  [[nodiscard]] bool has_rule(net::FlowId flow) const {
    return rules_.contains(flow);
  }

  /// The effective rule for a flow (default bearer when none installed).
  [[nodiscard]] PolicyRule rule_for(net::FlowId flow) const {
    const auto it = rules_.find(flow);
    if (it != rules_.end()) return it->second;
    return PolicyRule{flow, net::Qci::kQci9};
  }

  /// Stamps the packet's bearer per the installed rules.
  void apply(net::Packet& packet) const {
    packet.qci = rule_for(packet.flow).qci;
  }

  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }

 private:
  std::map<net::FlowId, PolicyRule> rules_;
};

}  // namespace tlc::epc
