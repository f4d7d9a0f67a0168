// serve_hot and serve_churn: closed- and open-loop load through the
// socket front-end (net::Server over loopback TCP, in this process), every
// response checked against an in-process serve::Engine, and, in a traced
// run, the per-layer costs of the same stream replayed through the
// public functions of each layer.
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "client.h"
#include "core/json.h"
#include "core/thread_pool.h"
#include "core/time.h"
#include "grid/analysis.h"
#include "grid/presets.h"
#include "hw/node.h"
#include "lifecycle/uncertainty.h"
#include "mc/distribution.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "serve/cache.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "streams.h"
#include "workloads.h"

namespace perfbench {

using namespace hpcarbon;

namespace {

// Thread budget (nproc = 4): the client (this thread), the server's IO
// thread and at most two workers. The global pool is pinned to one thread
// in main(), so Monte-Carlo queries evaluate inline on their worker.
constexpr std::size_t kConns = 4;
constexpr int kSetups = 5;
/// Share of the measured seconds spent in the closed-loop phase; the rest
/// is the open-loop phase (split in two halves, untraced and traced, in a
/// traced run).
constexpr double kClosedShare = 0.4;

struct ServeConfig {
  const char* name;
  /// Server workers. serve_hot answers inline on the IO thread (0): every
  /// request is a ~3 µs cache hit, so a hand-off to a worker would cost
  /// more than the answer, and on a host whose vCPUs are preempted each
  /// cross-thread wake-up adds milliseconds. serve_churn needs workers:
  /// a miss evaluates for up to a few ms.
  std::size_t workers;
  /// Closed-loop requests in flight per connection.
  std::size_t depth;
  /// Fixed offered rate of the open-loop phase: a constant, never derived
  /// from a measured throughput.
  double open_rate;
  std::size_t cache_bytes;
  /// Stream length reserved per closed-loop second: a ceiling on the
  /// closed-loop rate (over twice the highest rate seen at this commit).
  double closed_stream_per_s;
};

constexpr ServeConfig kHot{"serve_hot", 0, 64, 50000.0, std::size_t{8} << 20, 800000.0};
constexpr ServeConfig kChurn{"serve_churn", 2, 16, 3000.0, std::size_t{1} << 20, 40000.0};

/// One in-process `hpcarbon serve --listen` on an ephemeral port, with its
/// own trace store and metrics registry. Members are destroyed in reverse
/// order, after the IO thread is joined.
struct Harness {
  std::unique_ptr<serve::TraceStore> traces;
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<net::Server> server;
  std::thread io;

  Harness() = default;
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;
  ~Harness() {
    if (server) server->begin_drain();
    if (io.joinable()) io.join();
  }
};

/// Set-up: preset traces, server construction, cache warm-up. Returns the
/// wall seconds; `trace_ms` receives the trace-generation share.
double set_up(const ServeConfig& cfg, const std::vector<std::string>& warm,
              Harness& h, double* trace_ms) {
  const auto t0 = Clock::now();
  h.traces = std::make_unique<serve::TraceStore>();
  for (const std::string& code : grid::codes_of(grid::all_regions())) {
    (void)h.traces->preset(code);
  }
  *trace_ms = seconds_since(t0) * 1e3;
  h.registry = std::make_unique<obs::MetricsRegistry>();
  net::ServerOptions o;
  o.serve.cache_bytes = cfg.cache_bytes;
  o.serve.traces = h.traces.get();
  o.serve.registry = h.registry.get();
  o.tcp = "127.0.0.1:0";
  o.workers = cfg.workers;
  h.server = std::make_unique<net::Server>(std::move(o));
  h.server->start();
  net::Server* server = h.server.get();
  h.io = std::thread([server] { server->run(); });
  for (const std::string& line : warm) (void)server->engine().handle_line(line);
  return seconds_since(t0);
}

bool is_metrics_response(const std::string& r) {
  static const std::string prefix = R"({"ok":true,"op":"metrics","result":{)";
  return r.size() > prefix.size() + 2 && r.compare(0, prefix.size(), prefix) == 0 &&
         r.compare(r.size() - 2, 2, "}}") == 0;
}

/// Which stream positions a phase covered: [first, first + result->sent).
struct PhaseSpan {
  const PhaseResult* result;
  std::size_t first;
};

/// Output checks, outside every timed window: each response must equal,
/// byte for byte (by hash), what an in-process Engine::handle_line returns
/// for the same line; metrics polls must be well-formed metrics
/// documents. Fills `ok` per phase and request; returns the number of
/// failed requests.
std::uint64_t check_responses(const Stream& stream,
                              const std::vector<PhaseSpan>& phases,
                              serve::TraceStore& traces, Report& rep,
                              std::vector<std::vector<char>>& ok_by_phase) {
  std::vector<char> used(stream.lines.size(), 0);
  for (const PhaseSpan& p : phases) {
    for (std::size_t i = 0; i < p.result->sent; ++i) {
      used[stream.seq[p.first + i]] = 1;
    }
  }
  std::vector<std::string> batch;
  std::vector<std::uint32_t> batch_line;
  for (std::uint32_t l = 0; l < stream.lines.size(); ++l) {
    if (used[l] && stream.kind[l] != Kind::kMetrics) {
      batch.push_back(stream.lines[l]);
      batch_line.push_back(l);
    }
  }
  ThreadPool pool(4);
  obs::MetricsRegistry registry;
  serve::ServeOptions o;
  o.cache_bytes = std::size_t{512} << 20;
  o.pool = &pool;
  o.traces = &traces;
  o.registry = &registry;
  serve::Engine reference(o);
  const std::vector<std::string> expected = reference.handle_batch(batch);
  std::vector<std::uint64_t> want(stream.lines.size(), 0);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    want[batch_line[k]] = hash_bytes(expected[k]);
  }

  std::uint64_t failed = 0;
  std::size_t wrong_reported = 0;
  for (const PhaseSpan& p : phases) {
    const PhaseResult& r = *p.result;
    std::vector<char>& oks = ok_by_phase.emplace_back(r.sent, 0);
    std::unordered_map<std::size_t, const std::string*> kept;
    for (const auto& [i, bytes] : r.kept) kept.emplace(i, &bytes);
    for (std::size_t i = 0; i < r.sent; ++i) {
      const std::uint32_t l = stream.seq[p.first + i];
      bool ok;
      if (stream.kind[l] == Kind::kMetrics) {
        const auto it = kept.find(i);
        ok = it != kept.end() && is_metrics_response(*it->second);
      } else {
        ok = r.hash[i] != 0 && r.hash[i] == want[l];
      }
      oks[i] = ok ? 1 : 0;
      if (!ok) {
        ++failed;
        if (wrong_reported++ < 3) {
          rep.notes.push_back("wrong or missing response to: " + stream.lines[l]);
        }
      }
    }
    if (r.lost_connection) rep.fail_check("a client connection was lost");
  }
  if (failed != 0) rep.fail_check(std::to_string(failed) + " wrong responses");
  return failed;
}

/// Closed-loop throughput: correct responses per second in each full
/// window of the sending period, median over windows (robust to a short
/// stall of the shared host).
double windowed_throughput(const PhaseResult& r, const std::vector<char>& ok,
                           double seconds) {
  constexpr double kWindowS = 0.25;
  const auto windows = static_cast<std::size_t>(seconds / kWindowS);
  std::vector<double> count(windows, 0.0);
  for (std::size_t i = 0; i < r.sent; ++i) {
    if (!ok[i]) continue;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(r.read_ns[i] - r.start_ns) / 1e9 / kWindowS);
    if (w < windows) count[w] += 1;
  }
  for (double& c : count) c /= kWindowS;
  return median(count);
}

/// Open-loop latency percentiles per chunk of kChunk consecutive requests
/// (in due order), median over chunks. A failed request counts as missing
/// every limit.
struct Latency {
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
Latency chunked_latency(const PhaseResult& r, const std::vector<char>& ok) {
  constexpr std::size_t kChunk = 1000;  // p99 has 10 samples beyond it
  std::vector<double> p50s, p90s, p99s, chunk;
  for (std::size_t c = 0; c + kChunk <= r.sent; c += kChunk) {
    chunk.assign(r.latency_us.begin() + static_cast<std::ptrdiff_t>(c),
                 r.latency_us.begin() + static_cast<std::ptrdiff_t>(c + kChunk));
    for (std::size_t k = 0; k < kChunk; ++k) {
      if (!ok[c + k]) chunk[k] = std::numeric_limits<double>::infinity();
    }
    p50s.push_back(percentile(chunk, 0.5));
    p90s.push_back(percentile(chunk, 0.9));
    p99s.push_back(percentile(chunk, 0.99));
  }
  return {median(p50s), median(p90s), median(p99s)};
}

struct LayerInputs {
  const Stream* stream;
  std::size_t first;  // the replayed window of the stream
  std::size_t count;
  serve::TraceStore* traces;
  const ServeConfig* cfg;
  std::uint64_t seed;
};

/// Per-layer costs from the public functions of each layer, on the lines
/// of the measured stream. Records spans for the replayed requests.
void replay_layers(const LayerInputs& in, SpanLog& spans, Report& rep) {
  const Stream& s = *in.stream;
  constexpr std::size_t kReplay = 20000;

  // Lines that are cache hits once warm: the hot kind.
  std::vector<std::size_t> hit_lines;
  for (std::size_t i = in.first; i < in.first + in.count && hit_lines.size() < kReplay; ++i) {
    if (s.kind[s.seq[i]] == Kind::kHot) hit_lines.push_back(s.seq[i]);
  }

  // serve::evaluate per family, on distinct valid lines of the stream.
  std::map<std::string, std::vector<double>> eval_us;
  std::unordered_map<std::uint32_t, std::string> result_doc;  // line -> value
  {
    std::unordered_set<std::uint32_t> seen;
    constexpr std::size_t kPerFamily = 48;
    for (std::size_t i = in.first; i < in.first + in.count; ++i) {
      const std::uint32_t l = s.seq[i];
      const Kind k = s.kind[l];
      if ((k != Kind::kHot && k != Kind::kFresh) || !seen.insert(l).second) continue;
      const serve::Query q = serve::parse_query_line(s.lines[l]);
      std::string family = q.op;
      const json::Value params = q.params();
      if (family == "lifetime" && params.find("samples")->as_number() > 0) {
        family = "lifetime_mc";
      }
      if (family == "trace") {
        if (!params.find("window_start_hour")) {
          // Whole-year trace summaries still supply cache values.
          result_doc[l] = serve::evaluate(q, *in.traces).dump(true);
          continue;
        }
        family = "trace_window";
      }
      auto& v = eval_us[family];
      const bool need_value = k == Kind::kHot;
      if (v.size() >= kPerFamily && !need_value) continue;
      json::Value out;
      const std::uint64_t a = mono_ns();
      const double ns = time_ns([&] { out = serve::evaluate(q, *in.traces); });
      const std::uint64_t b = mono_ns();
      spans.add(spans.name_id("evaluate." + family), a, b, SpanLog::kNoParent, i);
      if (v.size() < kPerFamily) v.push_back(ns / 1e3);
      result_doc[l] = out.dump(true);
    }
  }
  for (const char* f : {"embodied", "lifetime", "lifetime_mc", "breakeven",
                        "trace_window", "sched", "fleetsim"}) {
    const auto it = eval_us.find(f);
    rep.set(std::string("evaluate.") + f + "_us",
            it == eval_us.end() ? 0.0 : median(it->second), "us");
  }

  // Hit path: json parse, canonicalization, cache lookup, whole engine.
  std::vector<double> parse_ns, canon_ns, hit_ns, engine_ns;
  {
    json::Reader reader;
    const std::uint32_t root_name = spans.name_id("replay.request");
    const std::uint32_t parse_name = spans.name_id("json.parse");
    const std::uint32_t canon_name = spans.name_id("request.canon");
    const std::uint32_t cache_name = spans.name_id("cache.get_append");
    const std::uint32_t engine_name = spans.name_id("engine.handle_line_to");

    serve::ResultCache cache(8, std::size_t{64} << 20);
    for (const std::size_t l : hit_lines) {
      const serve::Query q = serve::parse_query_line(s.lines[l]);
      cache.put(q.key, q.canonical, result_doc.at(static_cast<std::uint32_t>(l)));
    }

    obs::MetricsRegistry registry;
    ThreadPool pool1(1);
    serve::ServeOptions o;
    o.cache_bytes = std::size_t{64} << 20;
    o.pool = &pool1;
    o.traces = in.traces;
    o.registry = &registry;
    serve::Engine engine(o);
    {
      std::unordered_set<std::size_t> warm;
      for (const std::size_t l : hit_lines) {
        if (warm.insert(l).second) (void)engine.handle_line(s.lines[l]);
      }
    }

    std::string out;
    out.reserve(1 << 16);
    for (std::size_t k = 0; k < hit_lines.size(); ++k) {
      const std::string& line = s.lines[hit_lines[k]];
      const std::uint64_t r0 = mono_ns();
      json::Reader::Ref root = json::Reader::kNone;
      const double p = time_ns([&] { root = reader.parse(line); });
      const std::uint64_t r1 = mono_ns();
      serve::Query q;
      const double c = time_ns([&] { q = serve::parse_query(reader, root); });
      const std::uint64_t r2 = mono_ns();
      out.clear();
      const double h = time_ns([&] { (void)cache.get_append(q.key, q.canonical, out); });
      const std::uint64_t r3 = mono_ns();
      out.clear();
      const double e = time_ns([&] { engine.handle_line_to(line, out); });
      const std::uint64_t r4 = mono_ns();
      parse_ns.push_back(p);
      canon_ns.push_back(c);
      hit_ns.push_back(h);
      engine_ns.push_back(e);
      const std::uint32_t root_span =
          spans.add(root_name, r0, r4, SpanLog::kNoParent, k);
      spans.add(parse_name, r0, r1, root_span, k);
      spans.add(canon_name, r1, r2, root_span, k);
      spans.add(cache_name, r2, r3, root_span, k);
      spans.add(engine_name, r3, r4, root_span, k);
    }

    std::vector<double> metrics_us;
    for (int k = 0; k < 50; ++k) {
      out.clear();
      metrics_us.push_back(
          time_ns([&] { engine.handle_line_to(R"({"op":"metrics"})", out); }) / 1e3);
    }
    rep.set("obs.metrics_op_us", median(metrics_us), "us");
  }
  const double parse = median(parse_ns);
  const double canon = median(canon_ns);
  const double hit = median(hit_ns);
  const double engine_hit = median(engine_ns);
  rep.set("json.parse_ns", parse, "ns");
  rep.set("request.canon_ns", canon, "ns");
  rep.set("cache.hit_ns", hit, "ns");
  rep.set("engine.hit_ns", engine_hit, "ns");
  rep.set("engine.assemble_ns", engine_hit - parse - canon - hit, "ns");
  if (in.cfg == &kHot && parse + canon + hit > engine_hit) {
    rep.fail_check("stage medians (parse + canon + cache hit) sum past engine.hit_ns");
  }

  // Insert at full budget: a one-shard cache far below the entries' bytes,
  // so every put of a new key evicts.
  {
    std::vector<std::pair<serve::Query, const std::string*>> entries;
    for (const auto& [l, doc] : result_doc) {
      entries.emplace_back(serve::parse_query_line(s.lines[l]), &doc);
    }
    serve::ResultCache small(1, std::size_t{16} << 10);
    std::vector<double> put_ns;
    for (std::size_t k = 0; k < 4000 && !entries.empty(); ++k) {
      const auto& [q, doc] = entries[k % entries.size()];
      std::string value = *doc;
      put_ns.push_back(time_ns([&] { small.put(q.key, q.canonical, std::move(value)); }));
    }
    rep.set("cache.put_ns", median(put_ns), "ns");
  }

  // grid::summarize: the whole-year statistics every trace miss recomputes.
  {
    std::vector<double> us;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      for (const std::string& code : grid::codes_of(grid::all_regions())) {
        const auto trace = in.traces->preset(code);
        us.push_back(time_ns([&] { (void)grid::summarize(*trace); }) / 1e3);
      }
    }
    rep.set("grid.summarize_us", median(us), "us");
  }

  // mc: draws of the lifetime sampler, and summarizing them.
  {
    constexpr int kDraws = 4096;
    ThreadPool pool1(1);
    const auto trace = in.traces->preset("CISO");
    lifecycle::LifecycleBands bands;
    std::vector<double> per_draw;
    for (int k = 0; k < 3; ++k) {
      const mc::SamplePlan plan{kDraws, in.seed + static_cast<std::uint64_t>(k), &pool1};
      per_draw.push_back(time_ns([&] {
        (void)lifecycle::node_lifetime_footprint_distribution(
            hw::v100_node(), workload::Suite::kNlp, 0.4, 5.0, *trace,
            HourOfYear(month_start_hour(5)), op::PueModel(1.2), bands, plan);
      }) / kDraws);
    }
    rep.set("mc.sample_ns", median(per_draw), "ns");
    Rng rng(in.seed);
    std::vector<double> us;
    for (int k = 0; k < 20; ++k) {
      std::vector<double> draws(kDraws);
      for (double& d : draws) d = rng.normal(100.0, 10.0);
      us.push_back(time_ns([&] { mc::Distribution dist(std::move(draws)); }) / 1e3);
    }
    rep.set("mc.summarize_us", median(us), "us");
  }
}

}  // namespace

Report run_serve(const Args& args, bool churn) {
  const ServeConfig& cfg = churn ? kChurn : kHot;
  Report rep;

  // Set-up, several times; the last harness is the one measured.
  const std::vector<std::string> warm =
      churn ? churn_hot_head() : net::query_universe();
  std::vector<double> setup_s, trace_ms;
  std::unique_ptr<Harness> h;
  for (int k = 0; k < kSetups; ++k) {
    h.reset();
    h = std::make_unique<Harness>();
    double ms = 0;
    setup_s.push_back(set_up(cfg, warm, *h, &ms));
    trace_ms.push_back(ms);
  }
  net::Server& server = *h->server;

  // Inputs: the closed-loop phase reads from the head of the stream, the
  // open-loop phase(s) from a fixed offset behind it, so the open-loop
  // inputs never depend on how fast the closed loop ran.
  const double closed_s = args.seconds * kClosedShare;
  const int open_phases = args.trace ? 2 : 1;
  const double open_s = args.seconds * (1.0 - kClosedShare) / open_phases;
  const auto closed_cap = static_cast<std::size_t>(closed_s * cfg.closed_stream_per_s);
  const auto open_n = static_cast<std::size_t>(open_s * cfg.open_rate);
  const std::size_t stream_len = closed_cap + open_n * static_cast<std::size_t>(open_phases);
  const Stream stream = churn ? churn_stream(args.seed, stream_len)
                              : hot_stream(args.seed, stream_len);
  const std::vector<std::uint64_t> due = poisson_due_ns(open_n, cfg.open_rate, args.seed);
  auto keep = [&stream](std::size_t pos) {
    return stream.kind[stream.seq[pos]] == Kind::kMetrics;
  };

  Client client(server.tcp_endpoint(), kConns);
  const serve::CacheStats before = server.engine().cache_stats();
  const double cpu0 = process_cpu_s(), client_cpu0 = thread_cpu_s();
  const PhaseResult closed = client.closed_loop(stream, 0, cfg.depth, closed_s, keep);
  // Server CPU per request: the process's CPU time minus this (client)
  // thread's, over the closed-loop phase.
  const double server_cpu_s =
      (process_cpu_s() - cpu0) - (thread_cpu_s() - client_cpu0);
  const PhaseResult open = client.open_loop(stream, closed_cap, due, false, keep);
  PhaseResult open_traced;
  if (args.trace) {
    open_traced = client.open_loop(stream, closed_cap + open_n, due, true, keep);
  }
  const serve::CacheStats after = server.engine().cache_stats();
  // Read before the checks, whose reference engine grows with the number
  // of requests the measured phases managed to send.
  const double rss_mb = peak_rss_mb();

  std::vector<PhaseSpan> phases = {{&closed, 0}, {&open, closed_cap}};
  if (args.trace) phases.push_back({&open_traced, closed_cap + open_n});
  std::vector<std::vector<char>> ok;
  rep.failed = check_responses(stream, phases, *h->traces, rep, ok);
  for (const PhaseSpan& p : phases) rep.attempted += p.result->sent;

  const Latency lat = chunked_latency(open, ok[1]);
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: closed loop %zu req in %.2f s (%zu conns x depth %zu); "
                "open loop %zu req at %.0f req/s offered",
                cfg.name, closed.received, closed.elapsed_s, kConns, cfg.depth,
                open.received, cfg.open_rate);
  rep.notes.push_back(line);

  if (!args.trace) {
    rep.set("cpu_us_per_op", server_cpu_s * 1e6 / static_cast<double>(closed.received), "us");
    rep.set("setup_s", median(setup_s), "s");
    rep.set("peak_rss_mb", rss_mb, "MiB");
    return rep;
  }

  // ---- Traced run: per-layer metrics. ----
  SpanLog spans;
  {
    // Every request feeds the statistics; one in kSpanEvery is logged as
    // spans, which keeps the span file of a 50k req/s phase small.
    constexpr std::size_t kSpanEvery = 8;
    const std::uint32_t req = spans.name_id("client.request");
    const std::uint32_t lag = spans.name_id("client.lag");
    const std::uint32_t rest = spans.name_id("net.transport_and_engine");
    for (std::size_t i = 0; i < open_traced.sent; i += kSpanEvery) {
      if (open_traced.read_ns[i] == 0) continue;
      const std::uint32_t root = spans.add(req, open_traced.due_ns[i],
                                           open_traced.read_ns[i],
                                           SpanLog::kNoParent, i);
      spans.add(lag, open_traced.due_ns[i], open_traced.written_ns[i], root, i);
      spans.add(rest, open_traced.written_ns[i], open_traced.read_ns[i], root, i);
    }
  }
  rep.set("wall.throughput", windowed_throughput(closed, ok[0], closed_s), "1/s");
  const double p50 = lat.p50;
  rep.set("net.open_p50_us", lat.p50, "us");
  rep.set("net.open_p90_us", lat.p90, "us");
  rep.set("net.open_p99_us", lat.p99, "us");
  const double p50_traced = chunked_latency(open_traced, ok[2]).p50;
  rep.set("net.client_lag_p99_us", percentile(open_traced.lag_us, 0.99), "us");
  rep.set("net.shed", static_cast<double>(server.stats().requests_shed.value()), "count");
  rep.set("net.max_inflight", static_cast<double>(server.stats().max_inflight.value()), "count");
  const double lookups = static_cast<double>((after.hits - before.hits) +
                                             (after.misses - before.misses));
  rep.set("cache.lookups", lookups, "count");
  rep.set("cache.hit_ratio",
          lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups : 0.0,
          "ratio");
  rep.set("cache.evictions_per_kreq",
          static_cast<double>(after.evictions - before.evictions) * 1e3 /
              static_cast<double>(rep.attempted),
          "1/kreq");
  rep.set("grid.trace_generate_ms", median(trace_ms), "ms");
  rep.set("trace.overhead_pct", 100.0 * (p50_traced - p50) / p50, "%");

  replay_layers({&stream, closed_cap, open_n, h->traces.get(), &cfg, args.seed},
                spans, rep);

  // The stage table: engine stages (in-process replay of the same stream)
  // plus the transport remainder add up to the client-observed median.
  double engine_hit = 0, parse = 0, canon = 0, hit = 0, assemble = 0;
  for (const Metric& m : rep.metrics) {
    if (m.name == "engine.hit_ns") engine_hit = m.value;
    if (m.name == "json.parse_ns") parse = m.value;
    if (m.name == "request.canon_ns") canon = m.value;
    if (m.name == "cache.hit_ns") hit = m.value;
    if (m.name == "engine.assemble_ns") assemble = m.value;
  }
  const double transport = p50_traced - engine_hit / 1e3;
  rep.set("net.transport_p50_us", transport, "us");
  std::vector<std::string> table = {
      "stage table (" + std::string(cfg.name) + ", open loop, traced):",
      "  json.parse          " + std::to_string(parse / 1e3) + " us",
      "  request.canon       " + std::to_string(canon / 1e3) + " us",
      "  cache.hit           " + std::to_string(hit / 1e3) + " us",
      "  engine.assemble     " + std::to_string(assemble / 1e3) + " us",
      "  = engine.hit        " + std::to_string(engine_hit / 1e3) + " us",
      "  net.transport       " + std::to_string(transport) + " us"
      "  (of which client lag p50 " +
          std::to_string(percentile(open_traced.lag_us, 0.5)) + " us)",
      "  = client p50        " + std::to_string(p50_traced) + " us"
      "  (untraced p50 " + std::to_string(p50) + " us)"};
  rep.notes.insert(rep.notes.end(), table.begin(), table.end());
  rep.notes.push_back(std::to_string(spans.size()) + " spans recorded");
  if (!args.trace_out.empty() && !spans.write(args.trace_out)) {
    rep.notes.push_back("could not write spans to " + args.trace_out);
  }
  return rep;
}

}  // namespace perfbench
