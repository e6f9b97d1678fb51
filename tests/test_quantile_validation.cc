// Validation: the report's per-class delay quantiles against the exact
// order statistics of the same deliveries.
//
// Each run is traced; every delivery record carries the packet's
// accumulated queueing delay, and with congestion control off and no
// faults a flow's class never changes, so grouping the records by their
// flow's class rebuilds exactly the samples each ClassStats saw.  The
// reported p50/p99/p999 must sit within 1/32 of the nearest-rank order
// statistic x_(ceil(q n)) (plus 2^-30 s for the underflow bucket), in
// order and never above the class maximum.  The sharded parking lot has
// one domain per switch and delivers into several of them, so its table
// is a merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "scenario_test_util.h"

namespace ispn {
namespace {

void expect_exact_quantiles(const scenario_test::TracedRun& run,
                            const std::string& what) {
  const scenario::ScenarioReport& report = run.report;
  std::array<std::vector<double>, 3> delays;
  for (const net::PacketTracer::Record& r : run.trace) {
    if (r.event != net::PacketTracer::Event::kDeliver) continue;
    const scenario::FlowOutcome& flow =
        report.flows.at(static_cast<std::size_t>(r.flow));
    ASSERT_EQ(flow.flow, r.flow);
    delays[static_cast<std::size_t>(flow.service)].push_back(
        r.queueing_delay);
  }
  for (std::size_t c = 0; c < delays.size(); ++c) {
    const scenario::ClassStats& cls = report.classes[c];
    const std::string label = what + ": class " + std::to_string(c);
    std::vector<double>& x = delays[c];
    ASSERT_EQ(x.size(), cls.delivered) << label;
    ASSERT_GE(x.size(), 100u) << label << ": too few deliveries to judge";
    std::sort(x.begin(), x.end());
    for (const double q : {0.5, 0.99, 0.999}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(x.size()))));
      const double truth = x[rank - 1];
      EXPECT_LE(std::abs(cls.quantile(q) - truth),
                truth / 32 + std::ldexp(1.0, -30))
          << label << " q=" << q << ": reported " << cls.quantile(q)
          << ", exact " << truth;
    }
    EXPECT_LE(cls.quantile(0.5), cls.quantile(0.99)) << label;
    EXPECT_LE(cls.quantile(0.99), cls.quantile(0.999)) << label;
    EXPECT_LE(cls.quantile(0.999), cls.delay.max()) << label;
  }
}

TEST(QuantileValidation, ChurnClassic) {
  scenario::ScenarioSpec spec = scenario::preset("churn");
  scenario::apply_scale(spec, "small");
  const scenario_test::TracedRun run = scenario_test::traced_run(spec);
  expect_exact_quantiles(run, "churn");
}

TEST(QuantileValidation, ParkingLotTwoShardsMerged) {
  scenario::ScenarioSpec spec = scenario::preset("parking_lot");
  scenario::apply_scale(spec, "small");
  spec.run_seconds = 12.0;  // at 6 s guaranteed delivers only 40 packets
  spec.shards = 2;
  const scenario_test::TracedRun run = scenario_test::traced_run(spec);
  expect_exact_quantiles(run, "parking_lot shards=2");
}

}  // namespace
}  // namespace ispn
