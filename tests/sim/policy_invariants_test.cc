// Cross-policy invariants, swept over datasets and seasons (TEST_P).
//
// These are the structural guarantees behind Fig. 6 and Lemmas 1-2, checked
// on every (dataset, season) cell rather than just the headline runs:
//   * NR consumes nothing and has the worst convenience error;
//   * MR has (near-)zero error and the highest energy;
//   * EP is feasible and dominates NR on error without exceeding MR's
//     energy;
//   * all runs account energy and error consistently.

#include <gtest/gtest.h>

#include <ostream>

#include "sim/simulation.h"

namespace imcf {
namespace sim {
namespace {

struct Cell {
  const char* dataset;
  int start_month;
  double budget_fraction;  ///< of the Table II budget, scaled to the window
};

// Names each sweep cell by its values. Without this, googletest prints the
// struct's raw bytes, which include the dataset pointer and padding, so the
// discovered test names change from one build to the next.
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.dataset << "_m" << cell.start_month << "_b"
      << cell.budget_fraction;
}

class PolicySweep : public ::testing::TestWithParam<Cell> {
 protected:
  static SimulationOptions MakeOptions(const Cell& cell) {
    SimulationOptions options;
    if (std::string(cell.dataset) == "house") {
      options.spec = trace::HouseSpec();
    } else if (std::string(cell.dataset) == "dorms") {
      options.spec = trace::DormsSpec();
      options.spec.units = 10;  // trimmed fleet keeps the sweep fast
      options.spec.budget_kwh /= 10.0;
    } else {
      options.spec = trace::FlatSpec();
    }
    options.start = FromCivil(2015, cell.start_month, 1);
    options.hours = DaysInMonth(2015, cell.start_month) * 24;
    // One month's proportional share of the 3-year budget, scaled by the
    // cell's tightness knob.
    options.budget_kwh =
        options.spec.budget_kwh / 36.0 * cell.budget_fraction;
    return options;
  }
};

TEST_P(PolicySweep, DominanceAndFeasibility) {
  const Cell& cell = GetParam();
  Simulator simulator(MakeOptions(cell));
  ASSERT_TRUE(simulator.Prepare().ok());

  const auto nr = simulator.Run(Policy::kNoRule);
  const auto ep = simulator.Run(Policy::kEnergyPlanner);
  const auto mr = simulator.Run(Policy::kMetaRule);
  ASSERT_TRUE(nr.ok());
  ASSERT_TRUE(ep.ok());
  ASSERT_TRUE(mr.ok());

  // Lemma 1 / Lemma 2 structure.
  EXPECT_DOUBLE_EQ(nr->fe_kwh, 0.0);
  EXPECT_GE(nr->fce_pct, ep->fce_pct - 1e-9);
  EXPECT_LE(mr->fce_pct, 1.0);  // varied tables allow small conflict error
  EXPECT_LE(ep->fe_kwh, mr->fe_kwh + 1e-6);
  EXPECT_GE(ep->fe_kwh, 0.0);

  // EP honours the budget.
  EXPECT_TRUE(ep->within_budget)
      << cell.dataset << " month " << cell.start_month << ": "
      << ep->fe_kwh << " vs " << simulator.total_budget_kwh();

  // Accounting consistency on every run.
  for (const SimulationReport* report : {&*nr, &*ep, &*mr}) {
    EXPECT_EQ(report->activations, nr->activations);
    EXPECT_GE(report->commands_issued, report->commands_dropped);
    EXPECT_GE(report->co2_kg, 0.0);
    if (report->fe_kwh == 0.0) {
      EXPECT_DOUBLE_EQ(report->co2_kg, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsAndSeasons, PolicySweep,
    ::testing::Values(Cell{"flat", 1, 1.0}, Cell{"flat", 4, 1.0},
                      Cell{"flat", 7, 1.0}, Cell{"flat", 10, 0.8},
                      Cell{"house", 1, 1.0}, Cell{"house", 7, 0.8},
                      Cell{"dorms", 1, 1.0}, Cell{"dorms", 7, 1.0},
                      Cell{"flat", 1, 0.6}, Cell{"house", 4, 0.6}));

}  // namespace
}  // namespace sim
}  // namespace imcf
