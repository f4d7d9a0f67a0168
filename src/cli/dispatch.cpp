#include "cli/dispatch.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cli/fleetsim_tool.h"
#include "cli/metrics_tool.h"
#include "cli/registry.h"
#include "cli/scenario_runner.h"
#include "cli/serve_tool.h"
#include "cli/sweep.h"
#include "cli/trace_tool.h"
#include "core/csv.h"
#include "core/error.h"
#include "core/table.h"
#include "core/thread_pool.h"
#include "sched/policy.h"

namespace hpcarbon::cli {

int usage(std::ostream& out, int exit_code) {
  out << "usage: hpcarbon <command> [args...]\n"
         "\n"
         "commands:\n"
         "  list                         all tools, regions, and policies\n"
         "  policies                     registered scheduling policies and "
         "their knobs\n"
         "  run <REGION...>              scenario sweep over the named "
         "Table 3 regions\n"
         "  run --all-regions            scenario sweep over all seven "
         "regions\n"
         "      [--policies a,b,...]     subset of policies (default: all "
         "registered)\n"
         "      [--days N]               workload horizon (default 28)\n"
         "      [--rate R]               job arrivals per hour (default "
         "2.5)\n"
         "      [--uncertainty N]        add savings quantiles over N "
         "workload seeds\n"
         "      [--trace-csv REGION=FILE] drive a region with an imported "
         "grid CSV\n"
         "      [--csv PATH]             also write the merged report as "
         "CSV\n"
         "      [--threads N]            worker threads (default: max(cores, "
         "2))\n"
         "  sweep                        Monte-Carlo uncertainty sweep: "
         "quantile tables\n"
         "      [--samples N]            MC draws per quantity (default "
         "4096)\n"
         "      [--sched-samples N]      workload seeds for the scheduler "
         "section\n"
         "      [--section a,b,...]      embodied, lifetime, breakeven, "
         "fleet, sched\n"
         "      [--region CODE]          CI-trace region for the lifetime "
         "section\n"
         "      [--years Y]              lifetime-section horizon (default "
         "5)\n"
         "      [--horizon Y]            break-even payback horizon (default "
         "15)\n"
         "      [--seed S] [--smoke] [--csv PATH] [--threads N]\n"
         "      [--trace-csv REGION=FILE] [--band-fab X] [--band-yield X]\n"
         "      [--band-epc X] [--band-packaging X] [--band-grid X]\n"
         "  fleetsim [REGION...]         integer-tick fleet simulator: "
         "policy ablation\n"
         "                               at millions of jobs/sec (default "
         "trio ERCOT ESO CISO)\n"
         "      [--policies a,b,...]     subset of policies (default: all "
         "registered)\n"
         "      [--process P]            arrivals: poisson, diurnal, or "
         "bursty\n"
         "      [--days N] [--rate R]    synthetic workload horizon and "
         "arrivals/hour\n"
         "      [--capacity N]           nodes per site (default 16)\n"
         "      [--jobs-csv PATH]        replay a job-trace CSV instead of "
         "generating\n"
         "      [--uncertainty N]        savings quantiles over N workload "
         "seeds\n"
         "      [--seed S] [--threads N]\n"
         "  trace <verb> <file>          import/inspect a real grid-trace "
         "CSV\n"
         "      stats|resample|export    (see `hpcarbon trace help`)\n"
         "  batch FILE                   answer a JSONL file of carbon "
         "queries\n"
         "      [--out PATH]             write responses to a file instead "
         "of stdout\n"
         "      [--cache-mb M] [--shards N] [--threads N]  ('-' reads "
         "stdin)\n"
         "  serve                        line-delimited JSON query loop on "
         "stdin/stdout\n"
         "      [--cache-mb M] [--shards N] [--threads N]  (see README "
         "\"Query API\")\n"
         "      [--listen HOST:PORT] [--unix PATH]  epoll socket daemon "
         "instead of a pipe\n"
         "      [--workers N] [--max-conns N] [--max-inflight N] "
         "[--idle-timeout S]\n"
         "      [--metrics-unix PATH]    Prometheus scrape socket (see "
         "README \"Observability\")\n"
         "      [--stats-interval S]     periodic one-line stats summary "
         "on stderr\n"
         "  metrics --unix PATH          scrape a daemon's metrics socket "
         "(Prometheus text)\n"
         "      [--local]                print this process's own registry "
         "instead\n"
         "  bench <name> [args...]       run one figure/table/ablation "
         "bench\n"
         "  example <name> [args...]     run one example\n"
         "  help                         this message\n";
  return exit_code;
}

std::size_t default_worker_threads() {
  const std::size_t env = ThreadPool::env_thread_hint();
  if (env > 0) return env;
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

double parse_number(const char* flag, const std::string& value) {
  double v = 0;
  try {
    std::size_t consumed = 0;
    v = std::stod(value, &consumed);
    if (consumed != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    throw Error(std::string(flag) + " expects a number, got '" + value + "'");
  }
  if (!std::isfinite(v)) {
    throw Error(std::string(flag) + " expects a finite number, got '" +
                value + "'");
  }
  return v;
}

std::uint64_t parse_non_negative_integer(const char* flag,
                                         const std::string& value) {
  const double n = parse_number(flag, value);
  // 0x1p64 bounds the cast below, which is undefined past uint64_t's range.
  if (n < 0 || n >= 0x1p64 || n != std::floor(n)) {
    throw Error(std::string(flag) + " expects a non-negative integer");
  }
  return static_cast<std::uint64_t>(n);
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> items;
  for (std::size_t pos = 0; pos != std::string::npos;) {
    const std::size_t comma = list.find(',', pos);
    std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) items.push_back(std::move(item));
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return items;
}

namespace {

int run_tool(ToolKind kind, const std::string& name, int argc, char** argv,
             std::ostream& err) {
  const ToolEntry* tool = find_tool(name);
  if (tool == nullptr) {
    err << "hpcarbon: unknown tool '" << name
        << "' (see `hpcarbon list`)\n";
    return 2;
  }
  if (tool->kind != kind) {
    err << "hpcarbon: '" << name << "' is "
        << (tool->kind == ToolKind::kBench ? "a bench" : "an example")
        << "; use `hpcarbon " << to_string(tool->kind) << " " << name
        << "`\n";
    return 2;
  }
  // The tool sees itself as argv[0], with any trailing driver arguments
  // forwarded, so argv-consuming tools (region_explorer, upgrade_advisor)
  // behave identically under the driver and standalone.
  return tool->fn(argc, argv);
}

int cmd_list() {
  std::cout << banner("hpcarbon tools");
  TextTable t({"Kind", "Name", "Description"});
  for (const auto& e : tools()) {
    t.add_row({to_string(e.kind), e.name, e.description});
  }
  std::cout << t.to_string();

  std::cout << banner("scenario runner (`hpcarbon run`)");
  std::cout << "regions: ";
  for (const auto& c : region_codes()) std::cout << c << ' ';
  std::cout << "(or --all-regions)\npolicies: ";
  for (const auto& p : policy_names()) std::cout << p << ' ';
  // Report the count `run` would use without spinning up the pool for a
  // purely informational command.
  std::cout << "\nworker threads: " << default_worker_threads() << '\n';
  return 0;
}

int cmd_policies() {
  std::cout << banner("registered scheduling policies");
  TextTable t({"Policy", "Short", "Description", "Knobs (default)"});
  for (const auto& desc : sched::registered_policies()) {
    std::string knobs;
    for (const auto& k : desc.knobs) {
      if (!knobs.empty()) knobs.append(", ");
      knobs.append(k.name);
      knobs.append("=");
      knobs.append(TextTable::num(k.default_value, 1));
    }
    t.add_row({desc.name, desc.short_name, desc.description,
               knobs.empty() ? std::string("-") : knobs});
  }
  std::cout << t.to_string();
  std::cout << "\nselect with `hpcarbon run --policies name,name,...` "
               "(canonical or short names);\nsee README \"Adding a "
               "scheduling policy\" to register your own.\n";
  return 0;
}

int cmd_run(int argc, char** argv, std::ostream& err) {
  ScenarioOptions opts;
  std::string csv_path;
  bool all_regions = false;
  std::size_t threads = 0;  // 0: no --threads flag; use default_worker_threads
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) throw Error(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (arg == "--all-regions") {
      all_regions = true;
    } else if (arg == "--policies") {
      for (const auto& name : split_list(next_value("--policies"))) {
        opts.policies.push_back(parse_policy(name));
      }
    } else if (arg == "--days") {
      opts.horizon_days = parse_number("--days", next_value("--days"));
    } else if (arg == "--rate") {
      opts.arrival_rate_per_hour = parse_number("--rate", next_value("--rate"));
    } else if (arg == "--uncertainty") {
      const double n = parse_number("--uncertainty", next_value("--uncertainty"));
      if (n < 1 || n != static_cast<int>(n)) {
        throw Error("--uncertainty expects a positive integer sample count");
      }
      opts.uncertainty_samples = static_cast<int>(n);
    } else if (arg == "--trace-csv") {
      opts.trace_csv.push_back(
          parse_trace_override(next_value("--trace-csv")));
    } else if (arg == "--csv") {
      csv_path = next_value("--csv");
    } else if (arg == "--threads") {
      threads = parse_non_negative_integer("--threads", next_value("--threads"));
    } else if (!arg.empty() && arg[0] == '-') {
      throw Error("unknown flag '" + arg + "' (see `hpcarbon help`)");
    } else if (std::find(opts.regions.begin(), opts.regions.end(), arg) ==
               opts.regions.end()) {
      opts.regions.push_back(arg);  // repeated codes would duplicate cells
    }
  }
  if (all_regions) {
    if (!opts.regions.empty()) {
      throw Error("--all-regions cannot be combined with named regions");
    }
    opts.regions = region_codes();
  }
  if (opts.regions.empty()) {
    err << "hpcarbon run: name at least one region or pass "
           "--all-regions (see `hpcarbon list`)\n";
    return 2;
  }

  ThreadPool::set_global_threads(threads > 0 ? threads
                                             : default_worker_threads());
  const ScenarioReport report = run_scenarios(opts);
  std::cout << banner("scenario sweep: " + std::to_string(opts.regions.size()) +
                      " regions x policy ablation");
  std::cout << report.jobs << " jobs over "
            << static_cast<int>(opts.horizon_days) << " days; "
            << report.rows.size() << " scenario cells on "
            << report.worker_threads_used << " worker threads\n";
  for (const auto& note : report.trace_notes) {
    std::cout << "trace override: " << note << '\n';
  }
  std::cout << '\n';
  std::cout << report.to_table().to_string();
  if (!csv_path.empty()) {
    write_file(csv_path, report.to_csv());
    std::cout << "\nmerged CSV report written to " << csv_path << '\n';
  }
  return 0;
}

}  // namespace

int dispatch(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) return usage(err, 2);
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    return usage(out, 0);
  }
  if (cmd == "list") return cmd_list();
  if (cmd == "policies") return cmd_policies();
  if (cmd == "run") return cmd_run(argc - 2, argv + 2, err);
  if (cmd == "fleetsim") return cmd_fleetsim(argc - 2, argv + 2, err);
  if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
  if (cmd == "trace") return cmd_trace(argc - 2, argv + 2);
  if (cmd == "batch") return cmd_batch(argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  if (cmd == "metrics") return cmd_metrics(argc - 2, argv + 2);
  if (cmd == "bench" || cmd == "example") {
    if (argc < 3) {
      err << "hpcarbon " << cmd << ": missing tool name\n";
      return 2;
    }
    const ToolKind kind =
        cmd == "bench" ? ToolKind::kBench : ToolKind::kExample;
    return run_tool(kind, argv[2], argc - 2, argv + 2, err);
  }
  err << "hpcarbon: unknown command '" << cmd << "'\n";
  return usage(err, 2);
}

}  // namespace hpcarbon::cli
