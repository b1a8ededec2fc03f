// The fleet recovery drill: the defended-vs-naive recovery gate under a
// correlated regional event. (The snapshot and partition drills run on the
// control-plane world; see control_chaos_test.cpp.)
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "faults/chaos_fleet.h"

namespace epm::faults {
namespace {

TEST(ChaosRecovery, DefendedRecoversWhereNaiveDoesNot) {
  const ChaosRecoveryReport r = run_chaos_recovery(
      4, /*clients_per_dc=*/2000, /*seed=*/42, make_reference_grid_script());
  EXPECT_TRUE(r.gate_ok);
  EXPECT_TRUE(r.defended.recovered);
  EXPECT_FALSE(r.naive.recovered);
  EXPECT_GE(r.defended.ratio, r.threshold);
  EXPECT_LT(r.naive.ratio, r.threshold);
  EXPECT_TRUE(r.defended.conservation_ok);
  EXPECT_TRUE(r.naive.conservation_ok);
  // The grid broadcasts actually reached the defended fleet.
  EXPECT_GT(r.defended.grid_signals, 0U);
}

TEST(ChaosRecovery, UnknownGridTargetsFailWithResolveDiagnostic) {
  try {
    run_chaos_recovery(4, 500, 42, "outage:region/nowhere@32+16");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(std::string::npos, message.find("unknown region 'nowhere'"));
    EXPECT_NE(std::string::npos, message.find("americas"));
  }
}

}  // namespace
}  // namespace epm::faults
