#include "epc/pcrf.hpp"

#include <gtest/gtest.h>

#include "epc/gateway.hpp"
#include "net/link.hpp"

namespace tlc::epc {
namespace {

using std::chrono::seconds;

net::Packet packet(net::FlowId flow, std::uint64_t size = 1'000) {
  net::Packet p;
  p.flow = flow;
  p.size = Bytes{size};
  return p;
}

TEST(Pcrf, DefaultIsBestEffort) {
  Pcrf pcrf;
  EXPECT_FALSE(pcrf.has_rule(7));
  const PolicyRule rule = pcrf.rule_for(7);
  EXPECT_EQ(rule.qci, net::Qci::kQci9);
}

TEST(Pcrf, InstallAndApply) {
  Pcrf pcrf;
  pcrf.install_rule({20, net::Qci::kQci7});
  EXPECT_TRUE(pcrf.has_rule(20));
  net::Packet p = packet(20);
  pcrf.apply(p);
  EXPECT_EQ(p.qci, net::Qci::kQci7);
}

TEST(Pcrf, ApplyLeavesOtherFlowsOnDefaultBearer) {
  Pcrf pcrf;
  pcrf.install_rule({20, net::Qci::kQci7});
  net::Packet other = packet(21);
  other.qci = net::Qci::kQci3;  // whatever the app asked for
  pcrf.apply(other);
  EXPECT_EQ(other.qci, net::Qci::kQci9);  // network policy wins
}

TEST(Pcrf, ReplaceAndRemove) {
  Pcrf pcrf;
  pcrf.install_rule({5, net::Qci::kQci7});
  pcrf.install_rule({5, net::Qci::kQci3});
  EXPECT_EQ(pcrf.rule_count(), 1u);
  EXPECT_EQ(pcrf.rule_for(5).qci, net::Qci::kQci3);
  pcrf.remove_rule(5);
  EXPECT_EQ(pcrf.rule_for(5).qci, net::Qci::kQci9);
}

TEST(Pcrf, GatewayAppliesRulesOnForward) {
  sim::Scheduler sched;
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  SpGateway gw{sched, plan, sim::NodeClock{}, Imsi::from_number(1)};
  Pcrf pcrf;
  pcrf.install_rule({20, net::Qci::kQci7});
  gw.set_pcrf(&pcrf);
  std::vector<net::Packet> forwarded;
  gw.set_downlink_forward(
      [&forwarded](net::Packet p) { forwarded.push_back(std::move(p)); });
  gw.forward_downlink(packet(20), true);
  gw.forward_downlink(packet(21), true);
  ASSERT_EQ(forwarded.size(), 2u);
  EXPECT_EQ(forwarded[0].qci, net::Qci::kQci7);
  EXPECT_EQ(forwarded[1].qci, net::Qci::kQci9);
}

TEST(Pcrf, MidStreamRuleInstallUpgradesFlow) {
  // The §2.2 gaming API: activate the high-QoS session while the game is
  // already running; subsequent packets ride QCI 7.
  sim::Scheduler sched;
  charging::DataPlan plan;
  plan.cycle_length = seconds{300};
  SpGateway gw{sched, plan, sim::NodeClock{}, Imsi::from_number(1)};
  Pcrf pcrf;
  gw.set_pcrf(&pcrf);
  std::vector<net::Qci> seen;
  gw.set_downlink_forward(
      [&seen](net::Packet p) { seen.push_back(p.qci); });
  gw.forward_downlink(packet(20), true);
  pcrf.install_rule({20, net::Qci::kQci7});
  gw.forward_downlink(packet(20), true);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], net::Qci::kQci9);
  EXPECT_EQ(seen[1], net::Qci::kQci7);
}

TEST(Pcrf, UpgradedFlowSurvivesCongestionLoss) {
  // End-to-end effect: a QCI 7 rule exempts the flow from the air
  // contention that kills best-effort traffic under load.
  sim::Scheduler sched;
  net::RadioConfig rcfg;
  rcfg.base_rss = Dbm{-80.0};
  rcfg.shadow_sigma_db = 0.0;
  rcfg.baseline_loss = 0.0;
  net::RadioModel radio{rcfg, Rng{1}};
  net::CellLink::Config lcfg;
  lcfg.congestion_loss = 1.0;  // saturated cell
  int delivered_qci7 = 0;
  int delivered_qci9 = 0;
  net::CellLink link{sched, lcfg, &radio,
                     [&](const net::Packet& p, TimePoint) {
                       (p.qci == net::Qci::kQci7 ? delivered_qci7
                                                 : delivered_qci9)++;
                     },
                     nullptr};
  Pcrf pcrf;
  pcrf.install_rule({20, net::Qci::kQci7});
  for (int i = 0; i < 20; ++i) {
    net::Packet accelerated = packet(20);
    pcrf.apply(accelerated);
    link.enqueue(std::move(accelerated));
    net::Packet best_effort = packet(21);
    pcrf.apply(best_effort);
    link.enqueue(std::move(best_effort));
  }
  sched.run();
  EXPECT_EQ(delivered_qci7, 20);
  EXPECT_EQ(delivered_qci9, 0);
}

}  // namespace
}  // namespace tlc::epc
