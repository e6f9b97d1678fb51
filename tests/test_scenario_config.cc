// Config-hardening suite for the scenario layer (PR 9, satellite a).
//
// The parsing surface (apply_override / apply_json / validate) is the
// trust boundary between the CLI/CI and the engine: every malformed key,
// out-of-range value or contradictory combination must surface as a
// diagnostic std::invalid_argument naming the offending key — never as a
// crash, a UB integer cast, or a half-built network.  A deterministic
// fuzz loop hammers the whole key space with adversarial values, and a
// second loop proves that every spec that survives validate() actually
// constructs and runs a conserving scenario.

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/runner.h"

namespace ispn {
namespace {

/// Applies one override to a fresh default spec and returns the
/// diagnostic it threw; fails the test if it did not throw.
std::string must_throw(const std::string& key, const std::string& value) {
  scenario::ScenarioSpec spec;
  try {
    scenario::apply_override(spec, key, value);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "override " << key << "=" << value << " did not throw";
  return {};
}

TEST(ScenarioConfig, UnknownKeysAreDiagnosed) {
  EXPECT_NE(must_throw("no_such_knob", "1").find("no_such_knob"),
            std::string::npos)
      << "diagnostic must name the offending key";
  EXPECT_NE(must_throw("", "1").find("unknown key"), std::string::npos);
  // The event core and the schedulers have one ordering structure each:
  // a config that still selects a backend is diagnosed, not silently
  // ignored.
  EXPECT_NE(must_throw("event_backend", "wheel").find("unknown key"),
            std::string::npos);
  EXPECT_NE(must_throw("order_backend", "heap").find("unknown key"),
            std::string::npos);
}

TEST(ScenarioConfig, MalformedNumbersAreDiagnosed) {
  for (const char* bad : {"", "abc", "1.2.3", "12abc", "0x", "--1", "1e"}) {
    EXPECT_NE(must_throw("arrival_rate", bad).find("arrival_rate"),
              std::string::npos)
        << "value '" << bad << "'";
  }
}

TEST(ScenarioConfig, NonFiniteNumbersAreRejected) {
  // NaN satisfies neither `< lo` nor `> hi`, so a naive range check lets
  // it straight through into an undefined integer cast; the parser must
  // refuse all non-finite values at the gate.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "1e400", "-1e400"}) {
    must_throw("run_seconds", bad);
    must_throw("target_flows", bad);
    must_throw("buffer_pkts", bad);
    must_throw("seed", bad);
  }
}

TEST(ScenarioConfig, IntegerFieldsRejectFractionsAndOverflow) {
  must_throw("target_flows", "3.5");
  must_throw("shards", "1e300");
  must_throw("mesh_rows", "2147483648");   // INT_MAX + 1
  must_throw("tree_depth", "-2147483649");  // INT_MIN - 1
}

TEST(ScenarioConfig, SizeFieldsRejectNegativesBeforeTheCast) {
  // A negative double cast to size_t wraps to ~2^64 and sails past any
  // `>= 1` validation; the parser must refuse the sign first.
  must_throw("buffer_pkts", "-1");
  must_throw("buffer_pkts", "-0.5");
}

TEST(ScenarioConfig, SeedRejectsOutOfRangeBeforeTheCast) {
  must_throw("seed", "-1");
  must_throw("seed", "1e20");  // > 2^64
  must_throw("seed", "0.5");
  // 2^64 - 1 is NOT representable as a double — it rounds to 2^64, which
  // is out of range, so the parser must refuse it rather than cast UB.
  must_throw("seed", "18446744073709551615");
  scenario::ScenarioSpec spec;
  scenario::apply_override(spec, "seed", "9007199254740992");  // 2^53: exact
  EXPECT_EQ(spec.seed, 9007199254740992ull);
}

TEST(ScenarioConfig, EnumKeysRejectUnknownValues) {
  must_throw("fabric", "torus");
  must_throw("source", "pareto");
  must_throw("reroute_policy", "panic");
  must_throw("admission_mode", "oracle");
  must_throw("measurement_estimator", "kalman");
  must_throw("preset", "doom");
  must_throw("scale", "galactic");
  must_throw("preempt_on_reject", "maybe");
}

TEST(ScenarioConfig, FailLinkGrammarIsEnforced) {
  must_throw("fail_link", "");
  must_throw("fail_link", "1:2");        // missing @T
  must_throw("fail_link", "1-2@3");      // wrong separator
  must_throw("fail_link", "1:2@3,down@4");  // tail must be up@
  must_throw("fail_link", "a:b@c");
}

TEST(ScenarioConfig, OutOfRangeValuesFailValidate) {
  const auto reject = [](const char* key, const char* value) {
    scenario::ScenarioSpec spec = scenario::preset("chaos");
    scenario::apply_override(spec, key, value);
    EXPECT_THROW(spec.validate(), std::invalid_argument)
        << key << "=" << value;
  };
  reject("flap_prob", "1.5");
  reject("loss_prob", "-0.1");
  reject("brownout_fraction", "0");
  reject("brownout_fraction", "1");
  reject("datagram_quota", "1");
  reject("readmit_backoff_factor", "0.5");
  reject("readmit_max_attempts", "0");
  reject("invariant_cadence", "-1");
  reject("run_seconds", "0");
  reject("mesh_rows", "0");
  reject("p_guaranteed", "0.7");  // chaos has p_predicted=0.4: mix > 1
  reject("target_loss", "-0.5");
  reject("target_loss", "1.5");
  // Fabrics past ScenarioSpec::kMaxSwitches are refused here rather than
  // exhausting memory in the builder; the count is 64-bit, so a mesh
  // whose rows * cols overflows an int is refused too.
  reject("chain_switches", "2000000000");
  reject("tree_depth", "20");
  reject("chain_switches",
         std::to_string(scenario::ScenarioSpec::kMaxSwitches + 1).c_str());
  scenario::ScenarioSpec mesh = scenario::preset("failure");
  scenario::apply_override(mesh, "mesh_rows", "65536");
  scenario::apply_override(mesh, "mesh_cols", "65536");
  EXPECT_THROW(mesh.validate(), std::invalid_argument);
  scenario::ScenarioSpec largest = scenario::preset("chain");
  scenario::apply_override(
      largest, "chain_switches",
      std::to_string(scenario::ScenarioSpec::kMaxSwitches));
  EXPECT_NO_THROW(largest.validate());
}

TEST(ScenarioConfig, ContradictoryCombinationsAreRejected) {
  {
    // Flapping rides on repair events: failures without repairs while
    // asking for flaps is a contradiction, not a silent no-op.
    scenario::ScenarioSpec spec = scenario::preset("chaos");
    spec.flap_prob = 0.5;
    spec.link_failure_rate = 0.1;
    spec.link_repair_mean = 0;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.link_failure_rate = 0;  // no failures at all: flap knob is inert
    EXPECT_NO_THROW(spec.validate());
  }
  {
    // A brown-out below the datagram quota could not clear committed WFQ
    // clock rates even after shedding everything sheddable.
    scenario::ScenarioSpec spec = scenario::preset("chaos");
    spec.brownout_rate = 0.1;
    spec.datagram_quota = 0.6;
    spec.brownout_fraction = 0.5;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
    spec.brownout_rate = 0;  // no brown-outs: the fraction is inert
    EXPECT_NO_THROW(spec.validate());
  }
  {
    // Backoff cap below the base backoff can never be reached.
    scenario::ScenarioSpec spec = scenario::preset("chaos");
    spec.readmit_backoff = 2.0;
    spec.readmit_backoff_max = 1.0;
    EXPECT_THROW(spec.validate(), std::invalid_argument);
  }
}

TEST(ScenarioConfig, FailedOverrideLeavesTheSpecUntouched) {
  scenario::ScenarioSpec spec = scenario::preset("chaos");
  const scenario::ScenarioSpec before = spec;
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"arrival_rate", "nan"},
           {"buffer_pkts", "-4"},
           {"fabric", "torus"},
           {"fail_link", "1:2"},
           {"seed", "-7"},
           {"bogus", "1"}}) {
    EXPECT_THROW(scenario::apply_override(spec, key, value),
                 std::invalid_argument);
  }
  // A throwing override must not have written anything first.
  EXPECT_EQ(spec.arrival_rate, before.arrival_rate);
  EXPECT_EQ(spec.buffer_pkts, before.buffer_pkts);
  EXPECT_EQ(spec.fabric, before.fabric);
  EXPECT_EQ(spec.link_failures.size(), before.link_failures.size());
  EXPECT_EQ(spec.seed, before.seed);
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioConfig, MalformedJsonIsDiagnosedNotFatal) {
  for (const char* bad : {
           "{ \"arrival_rate\": }",
           "{ \"arrival_rate\" }",
           "{ \"unterminated",
           "arrival_rate = nan",
           "{ \"no_such_knob\": 3 }",
       }) {
    scenario::ScenarioSpec spec;
    EXPECT_THROW(scenario::apply_json(spec, bad), std::invalid_argument)
        << "input: " << bad;
  }
}

// --- deterministic fuzz ---------------------------------------------------

const char* const kAllKeys[] = {
    "preset",         "scale",          "fabric",
    "chain_switches", "tree_depth",     "tree_width",
    "parking_hops",   "mesh_rows",      "mesh_cols",
    "ring_switches",  "clos_spines",    "clos_leaves",
    "fail_link",      "link_failure_rate", "link_repair_mean",
    "flap_prob",      "flap_burst_max", "flap_gap_mean",
    "node_crash_rate", "node_repair_mean", "brownout_rate",
    "brownout_fraction", "brownout_mean", "loss_rate",
    "loss_prob",      "loss_mean",      "readmit_backoff",
    "readmit_backoff_factor", "readmit_backoff_max", "readmit_max_attempts",
    "invariant_cadence", "reroute_policy", "link_rate",
    "parking_rate_step", "buffer_pkts",  "class_targets",
    "arrival_rate",   "arrival_window", "target_flows",
    "mean_hold",      "p_guaranteed",   "p_predicted",
    "long_flow_fraction", "source",     "avg_rate_pps",
    "peak_factor",    "packet_bits",    "target_delay",
    "target_loss",    "cc",             "binary_feedback",
    "mark_threshold", "cc_max_cwnd",    "preempt_on_reject",
    "run_seconds",    "drain_grace",    "seed",
    "admission_mode", "datagram_quota", "measurement_window",
    "measurement_safety", "measurement_estimator", "measurement_ewma_gain",
    "shards",         "link_latency",   "hierarchical",
    // Removed or unknown keys must be refused, never crash.
    "event_backend",  "order_backend",  "no_such_knob",   "",
    "FABRIC",
};

const char* const kAdversarialValues[] = {
    "",      "0",       "1",      "-1",    "0.5",      "1.5",   "-0.5",
    "nan",   "-nan",    "inf",    "-inf",  "1e400",    "-1e400", "1e-400",
    "3.5",   "2147483648", "-2147483649", "1e20",     "18446744073709551615",
    "abc",   "1.2.3",   "12abc",  "true",  "false",    "maybe", "0x10",
    "1:2",   "1:2@3",   "a,b",    "0.1,0.2", ",",      " ",     "--1",
    "mesh",  "heap",    "degrade", "chaos", "smoke",   "#",     "\"",
};

TEST(ScenarioConfig, FuzzEveryKeyAgainstAdversarialValuesNeverCrashes) {
  std::mt19937 rng(0xC0FFEE);
  std::uniform_int_distribution<std::size_t> pick_key(
      0, std::size(kAllKeys) - 1);
  std::uniform_int_distribution<std::size_t> pick_value(
      0, std::size(kAdversarialValues) - 1);

  // Exhaustive single-override sweep: every key x every value, applied to
  // a fresh default spec.  Only std::invalid_argument may escape.
  for (const char* key : kAllKeys) {
    for (const char* value : kAdversarialValues) {
      scenario::ScenarioSpec spec;
      try {
        scenario::apply_override(spec, key, value);
        spec.validate();  // either throws invalid_argument or passes
      } catch (const std::invalid_argument&) {
        // expected for the malformed majority
      }
    }
  }

  // Random override SEQUENCES on top of presets: later overrides land on
  // specs already mutated by earlier ones, so cross-field contradictions
  // get exercised too.
  const char* const presets[] = {"fan_in", "failure", "chaos", "churn"};
  for (int round = 0; round < 400; ++round) {
    scenario::ScenarioSpec spec =
        scenario::preset(presets[round % std::size(presets)]);
    for (int k = 0; k < 6; ++k) {
      try {
        scenario::apply_override(spec, kAllKeys[pick_key(rng)],
                                 kAdversarialValues[pick_value(rng)]);
      } catch (const std::invalid_argument&) {
      }
    }
    try {
      spec.validate();
      spec.validate();  // validation is pure: a second pass must agree
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(ScenarioConfig, FuzzedValidSpecsConstructAndConserve) {
  // Specs that survive validate() must construct a whole network and run
  // a conserving scenario — validation leaving a lethal combination
  // through would surface here as a crash or a broken ledger.  Mutation
  // pool is bounded (probabilities, rates, small ints) so the fuzz stays
  // test-sized; structural blow-ups are validate()'s job, covered above.
  std::mt19937 rng(0xFEED);
  const std::pair<const char*, std::vector<const char*>> knobs[] = {
      {"flap_prob", {"0", "0.5", "1"}},
      {"brownout_fraction", {"0.45", "0.9"}},
      {"loss_prob", {"0", "0.3", "1"}},
      {"node_crash_rate", {"0", "0.05"}},
      {"readmit_backoff", {"0", "0.25"}},
      {"invariant_cadence", {"0", "0.25"}},
      {"shards", {"0", "2"}},
      {"reroute_policy", {"degrade", "preempt"}},
  };
  for (int round = 0; round < 6; ++round) {
    scenario::ScenarioSpec spec = scenario::preset("chaos");
    spec.run_seconds = 2.0;
    spec.seed = 100 + static_cast<std::uint64_t>(round);
    for (const auto& [key, values] : knobs) {
      std::uniform_int_distribution<std::size_t> pick(0, values.size() - 1);
      scenario::apply_override(spec, key, values[pick(rng)]);
    }
    try {
      spec.validate();
    } catch (const std::invalid_argument&) {
      continue;  // contradiction drawn (e.g. fraction under quota): fine
    }
    scenario::ScenarioRunner runner(spec);
    const scenario::ScenarioReport report = runner.run();
    EXPECT_TRUE(report.conserved()) << "round " << round;
    EXPECT_EQ(report.invariant_violations, 0u) << "round " << round;
  }
}

TEST(ScenarioConfig, BadExplicitLinkFailsPrepareWithoutPartialNetwork) {
  scenario::ScenarioSpec spec = scenario::preset("failure");
  spec.run_seconds = 2.0;
  spec.link_failure_rate = 0;
  spec.link_failures.push_back({0, 4, 1.0, -1.0});  // no such link in the mesh
  spec.validate();  // ids are plausible; only the topology knows better
  {
    scenario::ScenarioRunner runner(spec);
    EXPECT_THROW(runner.prepare(), std::exception);
  }  // destruction of the half-prepared runner must be clean
  // ...and the failure must not poison anything global: an identical
  // runner minus the bad link builds and conserves.
  spec.link_failures.clear();
  scenario::ScenarioRunner good(spec);
  EXPECT_TRUE(good.run().conserved());
}

}  // namespace
}  // namespace ispn
