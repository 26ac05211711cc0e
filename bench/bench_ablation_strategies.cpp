// Ablation — the full strategy battle matrix for Algorithm 1.
//
// Every pairing of edge × operator strategies (honest, optimal, random,
// stubborn-overclaimer / stubborn-underclaimer) over exact views, reporting
// convergence rate, mean rounds, and the mean signed charge deviation
// (x − x̂)/x̂. Verifies the theorem landscape:
//   * any honest/optimal/random pairing converges with x̂_o ≤ x ≤ x̂_e;
//   * optimal × optimal and honest × honest land exactly on x̂ in 1 round;
//   * one-sided selfishness moves x within the bound, never outside;
//   * out-of-bound stubbornness never converges (and thus never profits).
#include <cstdio>

#include "common/stats.hpp"
#include "exp/metrics.hpp"
#include "tlc/negotiation.hpp"

using namespace tlc;
using namespace tlc::core;
using exp::Table;
using exp::fmt;

namespace {

struct Maker {
  const char* name;
  StrategyPtr (*make)();
};

StrategyPtr e_honest() { return make_honest_edge(); }
StrategyPtr e_optimal() { return make_optimal_edge(); }
StrategyPtr e_random() { return make_random_edge(0.5); }
StrategyPtr e_stubborn() { return make_stubborn(Bytes{100'000'000}); }
StrategyPtr o_honest() { return make_honest_operator(); }
StrategyPtr o_optimal() { return make_optimal_operator(); }
StrategyPtr o_random() { return make_random_operator(0.5); }
StrategyPtr o_stubborn() { return make_stubborn(Bytes{5'000'000'000}); }

}  // namespace

int main() {
  std::printf("## Ablation: Algorithm 1 strategy battle matrix\n");
  std::printf("(truth: sent 1000 MB, received 920 MB, c = 0.5 -> x̂ = 960 "
              "MB)\n\n");

  const LocalView truth{Bytes{1'000'000'000}, Bytes{920'000'000}};
  const Bytes correct =
      charging::charged_volume(truth.sent_estimate,
                               truth.received_estimate, 0.5);

  constexpr Maker kEdges[] = {{"honest", e_honest},
                              {"optimal", e_optimal},
                              {"random", e_random},
                              {"stubborn-low", e_stubborn}};
  constexpr Maker kOps[] = {{"honest", o_honest},
                            {"optimal", o_optimal},
                            {"random", o_random},
                            {"stubborn-high", o_stubborn}};

  Table table{{"edge \\ operator", "converged", "rounds", "mean (x-x̂)/x̂",
               "bound held"}};
  for (const Maker& em : kEdges) {
    for (const Maker& om : kOps) {
      const auto edge = em.make();
      const auto op = om.make();
      OnlineStats rounds;
      OnlineStats deviation;
      int converged = 0;
      bool bound_held = true;
      const int kTrials = 40;
      for (std::uint64_t seed = 1; seed <= kTrials; ++seed) {
        Rng rng{seed};
        const auto out = negotiate(*edge, truth, *op, truth, 0.5, rng);
        if (!out.converged) continue;
        ++converged;
        rounds.add(out.rounds);
        deviation.add((out.charged.as_double() - correct.as_double()) /
                      correct.as_double());
        const double slack = truth.sent_estimate.as_double() * 0.035;
        if (out.charged.as_double() <
                truth.received_estimate.as_double() - slack ||
            out.charged.as_double() > truth.sent_estimate.as_double() + slack) {
          bound_held = false;
        }
      }
      table.add_row(
          {std::string(em.name) + " vs " + om.name,
           std::to_string(converged) + "/" + std::to_string(kTrials),
           converged > 0 ? fmt(rounds.mean(), 1) : std::string("-"),
           converged > 0 ? fmt(deviation.mean() * 100, 2) + "%"
                         : std::string("-"),
           converged > 0 ? (bound_held ? "yes" : "NO") : "n/a (no PoC)"});
    }
  }
  table.print();
  std::printf("\nReading: honest/optimal pairs hit x̂ exactly (0.00%%) in 1 "
              "round; one-sided\nselfishness shifts x within [x̂_o, x̂_e]; "
              "out-of-bound stubbornness never\nproduces a PoC, so it never "
              "gets paid.\n");
  return 0;
}
