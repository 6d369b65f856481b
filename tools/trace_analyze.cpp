// trace_analyze: flight-recorder post-mortem for GTTRACE1 binary traces.
//
//   trace_analyze <trace.bin> [--perfetto out.json] [--expect-clean]
//                 [--expect-anomalies N] [--expect-type NAME] [detector knobs]
//
// Prints the analyzer summary (kind counts, retransmission chains grouped
// by trace id, partition windows, anomalies) and optionally exports Chrome
// trace-event JSON loadable at ui.perfetto.dev. --expect-type NAME (an
// anomaly_type_name string such as mass_inflation, rank_anomaly or
// feedback_ring; repeatable) requires at least one anomaly of that type —
// the CI attack matrix uses it to assert that seeded attacks leave their
// specific manipulation signature. Exit codes: 0 ok, 1 an --expect-* check
// failed, 2 file/usage error (a bad flag value included).
#include <cstdio>
#include <string>
#include <vector>

#include "common/knob.hpp"
#include "trace/analyzer.hpp"
#include "trace/perfetto.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace gt::knob;
  std::string input;
  std::string perfetto_out;
  bool expect_clean = false;
  std::size_t expect_anomalies = 0;  // at least this many; 0 checks nothing
  std::vector<std::string> expect_types;
  gt::trace::AnalyzerConfig config;
  Cli("trace_analyze",
      {{"TRACE", "", into(input), /*required=*/true},
       {"--perfetto", "OUT.json", into(perfetto_out)},
       {"--expect-clean", "", into(expect_clean)},
       {"--expect-anomalies", "N", into(expect_anomalies)},
       {"--expect-type", "NAME",
        [&](std::string_view, std::string_view t) { expect_types.emplace_back(t); }},
       {"--mass-tolerance", "T", into(config.mass_tolerance, 0.0)},
       {"--storm-threshold", "K", into(config.storm_threshold)},
       {"--inflation-tolerance", "T", into(config.inflation_tolerance, 0.0)},
       {"--rank-jump", "X", into(config.rank_jump, 0.0)},
       {"--rank-warmup", "N", into(config.rank_warmup)},
       {"--rank-window", "N", into(config.rank_window)},
       {"--bias-threshold", "X", into(config.bias_threshold, 0.0)},
       {"--min-ring", "N", into(config.min_ring)}})
      .parse_or_exit(argc, argv);

  gt::trace::TraceFileHeader header;
  std::vector<gt::trace::TraceRecord> records;
  if (!gt::trace::read_trace_file(input, header, records)) return 2;

  const gt::trace::TraceSummary summary =
      gt::trace::analyze_trace(header, records, config);
  std::fputs(gt::trace::summary_text(summary).c_str(), stdout);

  if (!perfetto_out.empty()) {
    if (!gt::trace::write_perfetto_json(header, records, perfetto_out))
      return 2;
    std::printf("perfetto json -> %s\n", perfetto_out.c_str());
  }

  if (expect_clean && !summary.anomalies.empty()) {
    std::fprintf(stderr, "FAIL: expected a clean trace, found %zu anomalies\n",
                 summary.anomalies.size());
    return 1;
  }
  if (summary.anomalies.size() < expect_anomalies) {
    std::fprintf(stderr, "FAIL: expected >= %zu anomalies, found %zu\n",
                 expect_anomalies, summary.anomalies.size());
    return 1;
  }
  for (const std::string& want : expect_types) {
    bool found = false;
    for (const auto& a : summary.anomalies)
      if (want == gt::trace::anomaly_type_name(a.type)) {
        found = true;
        break;
      }
    if (!found) {
      std::fprintf(stderr, "FAIL: expected an anomaly of type %s\n",
                   want.c_str());
      return 1;
    }
  }
  return 0;
}
