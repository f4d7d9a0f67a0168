// Top-level command dispatch of the `hpcarbon` driver.
//
// Lives in hpcarbon_cli_core (not main.cpp) so the exit-code and stream
// contract is unit-testable in-process:
//
//   hpcarbon                  -> usage on `err`, exit 2
//   hpcarbon <unknown>        -> diagnostic + usage on `err`, exit 2
//   hpcarbon help|--help|-h   -> usage on `out`, exit 0
//
// Subcommand reports print to std::cout/std::cerr as before; `out`/`err`
// carry only the driver-level usage and diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace hpcarbon::cli {

/// Render the usage text to `out` and return `exit_code`.
int usage(std::ostream& out, int exit_code);

/// Worker count the driver uses when --threads is absent: the
/// HPCARBON_THREADS environment variable if set, else at least two
/// workers so scenario/batch fan-out overlaps even on single-core
/// machines. Shared by run, sweep, batch, and serve.
std::size_t default_worker_threads();

/// `value` as a finite number, all of it. Throws hpcarbon::Error "<flag>
/// expects a number, got '<value>'" otherwise, or "<flag> expects a finite
/// number" for inf and nan. Shared by run, fleetsim, sweep, trace and
/// serve.
double parse_number(const char* flag, const std::string& value);

/// parse_number, then a whole number in [0, 2^64). Throws hpcarbon::Error
/// "<flag> expects a non-negative integer" otherwise. Seeds and --threads.
std::uint64_t parse_non_negative_integer(const char* flag,
                                         const std::string& value);

/// The comma-separated items of `list` ("a,,b" -> {"a", "b"}).
std::vector<std::string> split_list(const std::string& list);

/// Full driver dispatch over the original argc/argv (argv[0] is the
/// program name). May throw hpcarbon::Error (main catches and maps to
/// exit 1).
int dispatch(int argc, char** argv, std::ostream& out, std::ostream& err);

}  // namespace hpcarbon::cli
