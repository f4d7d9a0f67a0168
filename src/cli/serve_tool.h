// `hpcarbon batch` and `hpcarbon serve`: the query-service front-ends.
//
// Both speak line-delimited JSON (one request per line, one response per
// line — see README "Query API") over the same serve::Engine:
//
//   hpcarbon batch requests.jsonl      file (or '-': stdin) in, JSONL out
//   hpcarbon serve                     request/response loop on
//                                      stdin/stdout, flushed per line, so
//                                      tests, CI, and scripts drive it
//                                      through a pipe
//   hpcarbon serve --listen HOST:PORT  epoll network daemon (TCP and/or
//            [--unix PATH]             Unix-domain socket; src/net) with
//                                      pipelining, backpressure and
//                                      graceful SIGTERM drain
//
// Responses are bit-identical across all three front-ends (and across
// thread counts); `batch` additionally prints a one-line cache summary to
// stderr, and the `{"op":"stats"}` control request reports cache, trace
// store and net_* transport counters in-band (net_* read zero in
// pipe/batch mode, where there is no transport). All front-ends share the
// serve::kMaxRequestLineBytes line limit: an oversized request line is
// answered with an ok:false response reporting its byte count.
//
// Observability (README "Observability"): every counter lives in the obs
// registry, recorded where it happens. `{"op":"metrics"}` returns the
// registry as JSON and `{"op":"stats"}` a fixed projection of it;
// `--metrics-unix PATH` exposes a Prometheus scrape socket (read with
// `hpcarbon metrics --unix PATH`); the socket daemon sets
// hpcarbon_process_start_time_seconds once at start; and
// `--stats-interval SECS` prints a one-line operational summary to
// stderr every interval.
#pragma once

namespace hpcarbon::cli {

/// `hpcarbon batch FILE [--out PATH] [--threads N] [--cache-mb M]
/// [--shards N]` (argv excludes the subcommand itself).
int cmd_batch(int argc, char** argv);

/// `hpcarbon serve [--threads N] [--cache-mb M] [--shards N]
/// [--listen HOST:PORT] [--unix PATH] [--workers N] [--max-conns N]
/// [--max-inflight N] [--idle-timeout SECONDS] [--metrics-unix PATH]
/// [--stats-interval SECS]`.
int cmd_serve(int argc, char** argv);

}  // namespace hpcarbon::cli
