#include "cli/trace_tool.h"

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "cli/dispatch.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/table.h"
#include "grid/analysis.h"
#include "grid/presets.h"

namespace hpcarbon::cli {

namespace {

int trace_usage(std::ostream& out, int exit_code) {
  out << "usage: hpcarbon trace <stats|resample|export> <file> [flags]\n"
         "\n"
         "  stats <file>                 import and print summary statistics\n"
         "  resample <file> --step S     re-emit at cadence S seconds\n"
         "  export <file>                re-emit canonical "
         "hour,intensity CSV\n"
         "\n"
         "flags:\n"
         "  --region CODE      region tag; a Table 3 code also sets the "
         "zone (default TRACE)\n"
         "  --tz-offset H      force the local-time zone, whole hours vs "
         "UTC\n"
         "  --step-in S        force the input cadence, seconds (default: "
         "inferred)\n"
         "  --max-gap N        forward-fill cap per gap, samples (default "
         "12)\n"
         "  --no-tile          fail instead of tiling sub-year coverage\n"
         "  --out PATH         write output CSV here instead of stdout\n";
  return exit_code;
}

struct TraceArgs {
  std::string verb;
  std::string file;
  TraceImportFlags flags;
  double step_out = 0;  // resample target cadence
  std::string out_path;
};

TraceArgs parse_args(int argc, char** argv) {
  TraceArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--region") {
      args.flags.region = next_value("--region");
    } else if (arg == "--tz-offset") {
      const double off = parse_number("--tz-offset", next_value("--tz-offset"));
      if (off != static_cast<int>(off) || off < -12 || off > 14) {
        throw Error("--tz-offset expects a whole-hour UTC offset");
      }
      args.flags.options.tz = TimeZone(static_cast<int>(off), "forced");
      args.flags.tz_forced = true;
    } else if (arg == "--step-in") {
      args.flags.options.step_seconds =
          parse_number("--step-in", next_value("--step-in"));
    } else if (arg == "--max-gap") {
      args.flags.options.max_gap_samples = static_cast<int>(
          parse_number("--max-gap", next_value("--max-gap")));
    } else if (arg == "--no-tile") {
      args.flags.options.tile_to_year = false;
    } else if (arg == "--step") {
      args.step_out = parse_number("--step", next_value("--step"));
    } else if (arg == "--out") {
      args.out_path = next_value("--out");
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown flag '" + arg + "' (see `hpcarbon trace`)");
    } else if (args.verb.empty()) {
      args.verb = arg;
    } else if (args.file.empty()) {
      args.file = arg;
    } else {
      throw Error("unexpected argument '" + arg + "'");
    }
  }
  return args;
}

void emit(const std::string& content, const std::string& out_path) {
  if (out_path.empty()) {
    std::cout << content;
  } else {
    write_file(out_path, content);
    std::cout << "written to " << out_path << '\n';
  }
}

int cmd_stats(const grid::CarbonIntensityTrace& trace,
              const grid::ImportReport& report) {
  std::cout << banner("trace " + trace.region_code());
  std::cout << "import: " << report.to_string() << '\n';
  std::cout << "zone:   UTC" << (trace.time_zone().utc_offset_hours() >= 0
                                     ? "+"
                                     : "")
            << trace.time_zone().utc_offset_hours() << ", cadence "
            << trace.step_seconds() << " s (" << trace.size()
            << " samples/year)\n\n";

  const grid::RegionSummary s = grid::summarize(trace);
  TextTable t({"Stat", "gCO2/kWh"});
  t.add_row({"min", TextTable::num(s.box.min, 1)});
  t.add_row({"q1", TextTable::num(s.box.q1, 1)});
  t.add_row({"median", TextTable::num(s.box.median, 1)});
  t.add_row({"mean", TextTable::num(s.box.mean, 1)});
  t.add_row({"q3", TextTable::num(s.box.q3, 1)});
  t.add_row({"max", TextTable::num(s.box.max, 1)});
  t.add_row({"CoV %", TextTable::num(s.cov_percent, 1)});
  std::cout << t.to_string();

  const auto profile = grid::diurnal_profile(trace);
  const auto lo = std::min_element(profile.begin(), profile.end());
  const auto hi = std::max_element(profile.begin(), profile.end());
  std::cout << "\ncleanest local hour " << (lo - profile.begin()) << " ("
            << TextTable::num(*lo, 1) << "), dirtiest hour "
            << (hi - profile.begin()) << " (" << TextTable::num(*hi, 1)
            << ")\n";
  return 0;
}

}  // namespace

grid::CarbonIntensityTrace import_with_flags(const std::string& path,
                                             const TraceImportFlags& flags,
                                             grid::ImportReport* report) {
  grid::ImportOptions opts = flags.options;
  if (!flags.tz_forced) {
    if (const auto spec = grid::find_region(flags.region)) {
      opts.tz = spec->tz;
    } else if (flags.region != "TRACE") {
      // A typo'd code would otherwise silently tag the trace UTC and shift
      // every local-hour statistic; only the default tag gets the UTC
      // fallback.
      throw Error("unknown region code '" + flags.region +
                  "'; use a Table 3 code or pass --tz-offset");
    }
  }
  return grid::import_trace_file(path, flags.region, opts, report);
}

int cmd_trace(int argc, char** argv) {
  const TraceArgs args = parse_args(argc, argv);
  if (args.verb.empty() || args.file.empty()) {
    return trace_usage(args.verb == "help" ? std::cout : std::cerr,
                       args.verb == "help" ? 0 : 2);
  }
  grid::ImportReport report;
  const grid::CarbonIntensityTrace trace =
      import_with_flags(args.file, args.flags, &report);

  if (args.verb == "stats") {
    return cmd_stats(trace, report);
  }
  if (args.verb == "resample") {
    if (args.step_out <= 0) {
      throw Error("trace resample needs --step SECONDS");
    }
    const auto resampled = trace.resampled(args.step_out);
    // Progress lines go to stderr so a bare `trace resample file --step S`
    // still pipes clean CSV.
    std::cerr << "import: " << report.to_string() << '\n'
              << "resampled " << trace.step_seconds() << " s -> "
              << resampled.step_seconds() << " s (" << resampled.size()
              << " samples)\n";
    emit(resampled.to_csv(), args.out_path);
    return 0;
  }
  if (args.verb == "export") {
    std::cerr << "import: " << report.to_string() << '\n';
    emit(trace.to_csv(), args.out_path);
    return 0;
  }
  std::cerr << "hpcarbon trace: unknown verb '" << args.verb << "'\n";
  return trace_usage(std::cerr, 2);
}

}  // namespace hpcarbon::cli
