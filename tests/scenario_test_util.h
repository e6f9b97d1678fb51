// Shared harness of the scenario determinism suites (golden, shard-diff,
// cc-diff): one traced run, one-shot or sliced, and one comparison of two
// runs.
//
// expect_same_run is the suites' single compare set: the packet trace
// record by record, the decision hash and end time, every counter in
// kReportCounters, the per-class statistics, every link row and every
// FlowOutcome field, doubles compared bit-exactly.  A counter added to the
// table joins every suite without touching it.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/tracer.h"
#include "scenario/runner.h"

namespace ispn::scenario_test {

/// One scenario run with its full packet trace.
struct TracedRun {
  std::vector<net::PacketTracer::Record> trace;
  scenario::ScenarioReport report;
  int workers = 0;  ///< threads the sharded engine ran (0 when classic)
};

/// Runs `spec` with every port and delivery traced.  `slices` = 1 runs it
/// in one run() call; n > 1 drives it as bench_ispn does: prepare(), then
/// advance() to run_seconds·k/n for k = 1..n, then finish().
inline TracedRun traced_run(scenario::ScenarioSpec spec, int slices = 1) {
  const double run_seconds = spec.run_seconds;
  scenario::ScenarioRunner runner(std::move(spec));
  net::PacketTracer tracer(1u << 22);
  runner.set_tracer(&tracer);
  runner.prepare();
  tracer.attach(runner.net());  // ports exist once the fabric is built
  TracedRun out;
  if (slices <= 1) {
    out.report = runner.run();
  } else {
    for (int k = 1; k <= slices; ++k) {
      runner.advance(run_seconds * k / slices);
    }
    out.report = runner.finish();
  }
  tracer.finalize();  // merge per-domain buffers (no-op on the classic path)
  EXPECT_FALSE(tracer.truncated());
  EXPECT_TRUE(out.report.conserved());
  out.trace = tracer.records();
  out.workers = runner.engine() != nullptr ? runner.engine()->workers() : 0;
  return out;
}

inline std::uint64_t fnv1a(std::uint64_t h, const void* data,
                           std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over every field of every record (doubles bit-exact), for
/// pinning a trace to a constant.
inline std::uint64_t hash_trace(
    const std::vector<net::PacketTracer::Record>& recs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& r : recs) {
    h = fnv1a(h, &r.time, sizeof r.time);
    const auto event = static_cast<std::uint8_t>(r.event);
    h = fnv1a(h, &event, sizeof event);
    h = fnv1a(h, &r.flow, sizeof r.flow);
    h = fnv1a(h, &r.seq, sizeof r.seq);
    h = fnv1a(h, &r.node, sizeof r.node);
    h = fnv1a(h, &r.queueing_delay, sizeof r.queueing_delay);
    h = fnv1a(h, &r.jitter_offset, sizeof r.jitter_offset);
  }
  return h;
}

/// Expects `got` to be byte-identical to `ref`; `what` labels failures.
inline void expect_same_run(const TracedRun& ref, const TracedRun& got,
                            const std::string& what) {
  // Record by record rather than by hash, so a failure names the first
  // diverging record.
  ASSERT_EQ(ref.trace.size(), got.trace.size()) << what;
  for (std::size_t i = 0; i < ref.trace.size(); ++i) {
    const auto& a = ref.trace[i];
    const auto& b = got.trace[i];
    ASSERT_TRUE(a.time == b.time && a.event == b.event && a.flow == b.flow &&
                a.seq == b.seq && a.node == b.node &&
                a.queueing_delay == b.queueing_delay &&
                a.jitter_offset == b.jitter_offset)
        << what << ": first divergence at record " << i << " (t=" << a.time
        << " vs " << b.time << ", flow " << a.flow << " seq " << a.seq << ")";
  }

  const scenario::ScenarioReport& r = ref.report;
  const scenario::ScenarioReport& g = got.report;
  EXPECT_EQ(r.decision_hash(), g.decision_hash()) << what;
  EXPECT_EQ(r.end_time, g.end_time) << what;
  for (const scenario::ReportCounter& c : scenario::kReportCounters) {
    EXPECT_EQ(r.*c.field, g.*c.field) << what << ": " << c.name;
  }

  for (std::size_t i = 0; i < r.classes.size(); ++i) {
    const scenario::ClassStats& a = r.classes[i];
    const scenario::ClassStats& b = g.classes[i];
    const std::string cls = what + ": class " + std::to_string(i);
    EXPECT_EQ(a.delivered, b.delivered) << cls;
    EXPECT_EQ(a.delay.mean(), b.delay.mean()) << cls;
    EXPECT_EQ(a.delay.max(), b.delay.max()) << cls;
    EXPECT_EQ(a.p50.value(), b.p50.value()) << cls;
    EXPECT_EQ(a.p99.value(), b.p99.value()) << cls;
    EXPECT_EQ(a.p999.value(), b.p999.value()) << cls;
    EXPECT_EQ(a.jitter.mean(), b.jitter.mean()) << cls;
  }

  ASSERT_EQ(r.links.size(), g.links.size()) << what;
  for (std::size_t i = 0; i < r.links.size(); ++i) {
    const scenario::LinkReport& a = r.links[i];
    const scenario::LinkReport& b = g.links[i];
    const std::string link = what + ": link " +
                             std::to_string(a.link.first) + "->" +
                             std::to_string(a.link.second);
    EXPECT_EQ(a.link, b.link) << link;
    EXPECT_EQ(a.utilization, b.utilization) << link;
    EXPECT_EQ(a.realtime_utilization, b.realtime_utilization) << link;
  }

  ASSERT_EQ(r.flows.size(), g.flows.size()) << what;
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const scenario::FlowOutcome& a = r.flows[i];
    const scenario::FlowOutcome& b = g.flows[i];
    const std::string flow = what + ": flow " + std::to_string(a.flow);
    EXPECT_EQ(a.flow, b.flow) << flow;
    EXPECT_EQ(a.service, b.service) << flow;
    EXPECT_EQ(a.admitted, b.admitted) << flow;
    EXPECT_EQ(a.hops, b.hops) << flow;
    EXPECT_EQ(a.opened, b.opened) << flow;
    EXPECT_EQ(a.closed, b.closed) << flow;
    EXPECT_EQ(a.delivered, b.delivered) << flow;
    EXPECT_EQ(a.max_delay, b.max_delay) << flow;
    EXPECT_EQ(a.bound, b.bound) << flow;
    EXPECT_EQ(a.reroutes, b.reroutes) << flow;
    EXPECT_EQ(a.degraded, b.degraded) << flow;
    EXPECT_EQ(a.path_epochs, b.path_epochs) << flow;
    EXPECT_EQ(a.max_delay_all, b.max_delay_all) << flow;
  }
}

}  // namespace ispn::scenario_test
