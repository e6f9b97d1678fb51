// Shared helpers for the reproduction benches.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/units.h"

namespace ispn::bench {

/// Run length: the paper's 600 s by default; override with
/// ISPN_BENCH_SECONDS for quick iterations.
inline sim::Duration run_seconds() {
  if (const char* env = std::getenv("ISPN_BENCH_SECONDS")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return sim::paper::kRunSeconds;
}

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() {
  std::printf("%s\n", std::string(78, '-').c_str());
}

}  // namespace ispn::bench
