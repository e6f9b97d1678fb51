#include "scenario/report.h"

#include <cstring>
#include <limits>
#include <ostream>
#include <span>

namespace ispn::scenario {

namespace {

/// FNV-1a over raw bytes.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(h, &bits, sizeof bits);
}

/// Calls fn(section, counters) once per section of kReportCounters.
template <class Fn>
void for_each_section(Fn&& fn) {
  const std::span<const ReportCounter> all(kReportCounters);
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i + 1;
    while (j < all.size() && all[j].section == all[i].section) ++j;
    fn(all[i].section, all.subspan(i, j - i));
    i = j;
  }
}

const char* verdict(bool ok) { return ok ? "  [OK]" : "  [VIOLATED]"; }

const char* class_name(std::size_t i) {
  switch (i) {
    case 0: return "guaranteed";
    case 1: return "predicted";
    default: return "datagram";
  }
}

}  // namespace

const char* to_string(AdmissionDecision::Kind kind) {
  switch (kind) {
    case AdmissionDecision::Kind::kAdmitted: return "admitted";
    case AdmissionDecision::Kind::kRejected: return "rejected";
    case AdmissionDecision::Kind::kPreempted: return "preempted";
    case AdmissionDecision::Kind::kRerouted: return "rerouted";
    case AdmissionDecision::Kind::kDegraded: return "degraded";
    case AdmissionDecision::Kind::kOrphaned: return "orphaned";
    case AdmissionDecision::Kind::kRestored: return "restored";
  }
  return "?";
}

std::uint64_t ScenarioReport::decision_hash() const {
  std::uint64_t h = 1469598103934665603ull;
  for (const AdmissionDecision& d : decisions) {
    h = fnv1a_double(h, d.time);
    h = fnv1a(h, &d.flow, sizeof d.flow);
    const auto service = static_cast<std::uint8_t>(d.service);
    h = fnv1a(h, &service, sizeof service);
    const auto kind = static_cast<std::uint8_t>(d.kind);
    h = fnv1a(h, &kind, sizeof kind);
    h = fnv1a(h, &d.rejected_hop, sizeof d.rejected_hop);
    h = fnv1a(h, d.reason.data(), d.reason.size());
  }
  return h;
}

void ScenarioReport::to_text(std::ostream& out) const {
  out << "scenario: " << spec_summary << "\n";
  for_each_section([&](std::string_view section,
                       std::span<const ReportCounter> counters) {
    out << section << ":";
    const char* sep = " ";
    for (const ReportCounter& c : counters) {
      out << sep << c.name << " " << this->*c.field;
      sep = ", ";
    }
    if (section == "run") out << " (" << end_time << " s simulated)";
    if (section == "conservation") out << verdict(conserved());
    if (section == "admission") out << " (ratio " << admission_ratio() << ")";
    if (section == "faults" && invariant_audits > 0) {
      out << verdict(invariant_violations == 0);
    }
    out << "\n";
  });
  out << "per-class delay (ms): mean / p50 / p99 / p999 / max, jitter mean\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassStats& c = classes[i];
    out << "  " << class_name(i) << ": delivered " << c.delivered;
    if (c.delivered > 0) {
      out << ", " << c.delay.mean() * 1e3 << " / " << c.quantile(0.5) * 1e3
          << " / " << c.quantile(0.99) * 1e3 << " / "
          << c.quantile(0.999) * 1e3 << " / " << c.delay.max() * 1e3
          << ", jitter " << c.jitter.mean() * 1e3;
    }
    out << "\n";
  }
  out << "links (from->to: util, realtime):\n";
  for (const LinkReport& l : links) {
    out << "  " << l.link.first << "->" << l.link.second << ": "
        << l.utilization << ", " << l.realtime_utilization << "\n";
  }
}

void ScenarioReport::to_json(std::ostream& out) const {
  // Full precision, so the JSON carries every bit the determinism suites
  // compare; the caller's precision is restored on the way out.
  const std::streamsize precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "{\n";
  out << "  \"spec\": \"" << spec_summary << "\",\n";
  out << "  \"end_time\": " << end_time << ",\n";
  out << "  \"conserved\": " << (conserved() ? "true" : "false") << ",\n";
  out << "  \"decision_hash\": \"" << decision_hash() << "\",\n";
  for_each_section([&](std::string_view section,
                       std::span<const ReportCounter> counters) {
    out << "  \"" << section << "\": {";
    const char* sep = " ";
    for (const ReportCounter& c : counters) {
      out << sep << "\"" << c.name << "\": " << this->*c.field;
      sep = ", ";
    }
    out << " },\n";
  });
  out << "  \"classes\": {\n";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const ClassStats& c = classes[i];
    out << "    \"" << class_name(i) << "\": { \"delivered\": " << c.delivered
        << ", \"mean_delay\": " << c.delay.mean() << ", \"p50\": "
        << c.quantile(0.5) << ", \"p99\": " << c.quantile(0.99)
        << ", \"p999\": " << c.quantile(0.999) << ", \"max\": "
        << (c.delivered ? c.delay.max() : 0.0) << ", \"jitter_mean\": "
        << c.jitter.mean() << " }" << (i + 1 < classes.size() ? "," : "")
        << "\n";
  }
  out << "  },\n";
  out << "  \"links\": [\n";
  for (std::size_t i = 0; i < links.size(); ++i) {
    out << "    { \"from\": " << links[i].link.first << ", \"to\": "
        << links[i].link.second << ", \"utilization\": "
        << links[i].utilization << ", \"realtime\": "
        << links[i].realtime_utilization << " }"
        << (i + 1 < links.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  out.precision(precision);
}

}  // namespace ispn::scenario
