// The network front-end contract: framing (shared max-line guard, CRLF
// trimming, oversize discard accounting), deterministic load generation,
// and the epoll server end-to-end over real TCP and Unix-domain sockets
// — byte-identity with the batch front-end, pipelining order, bounded
// in-flight shedding, max-conns refusal, idle timeout, graceful drain
// (API call and SIGTERM), and the net_* stats counters.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "core/json.h"
#include "net/framing.h"
#include "net/listener.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/limits.h"

using namespace hpcarbon;

namespace {

// --------------------------------------------------------------------------
// LineFramer

TEST(Framer, SplitsTrimsAndSkipsBlankLines) {
  net::LineFramer f;
  std::vector<std::string> lines;
  const std::string input = "alpha\r\n\n  \t\nbeta gamma\n\r\ndelta";
  for (std::size_t i = 0; i < input.size(); ++i) {  // worst case: 1B chunks
    f.feed(std::string_view(input).substr(i, 1));
    for (auto it = f.next(); it.kind != net::LineFramer::Item::Kind::kNone;
         it = f.next()) {
      ASSERT_EQ(it.kind, net::LineFramer::Item::Kind::kLine);
      lines.emplace_back(it.line);
    }
  }
  const auto last = f.finish();  // "delta" has no trailing newline
  ASSERT_EQ(last.kind, net::LineFramer::Item::Kind::kLine);
  lines.emplace_back(last.line);
  EXPECT_EQ(lines, (std::vector<std::string>{"alpha", "beta gamma", "delta"}));
}

TEST(Framer, OversizeLineCountedNotBuffered) {
  net::LineFramer f(/*max_line_bytes=*/16);
  const std::string big(1000, 'x');
  std::size_t oversize_seen = 0;
  std::vector<std::string> lines;
  const std::string input = "ok-1\n" + big + "\nok-2\n";
  for (std::size_t i = 0; i < input.size(); i += 7) {
    f.feed(std::string_view(input).substr(i, 7));
    EXPECT_LE(f.buffered_bytes(), 16u + 7u);  // never holds the big line
    for (auto it = f.next(); it.kind != net::LineFramer::Item::Kind::kNone;
         it = f.next()) {
      if (it.kind == net::LineFramer::Item::Kind::kOversize) {
        oversize_seen = it.oversize_bytes;
      } else {
        lines.emplace_back(it.line);
      }
    }
  }
  EXPECT_EQ(oversize_seen, big.size());  // exact byte count, as batch reports
  EXPECT_EQ(lines, (std::vector<std::string>{"ok-1", "ok-2"}));
}

TEST(Framer, OversizeAtEofStillReported) {
  net::LineFramer f(8);
  f.feed("0123456789abcdef");  // unterminated and over the limit
  EXPECT_EQ(f.next().kind, net::LineFramer::Item::Kind::kNone);
  const auto last = f.finish();
  ASSERT_EQ(last.kind, net::LineFramer::Item::Kind::kOversize);
  EXPECT_EQ(last.oversize_bytes, 16u);
}

// --------------------------------------------------------------------------
// Load generation determinism (the bench's identity contract)

TEST(Loadgen, MixAndArrivalsAreBitIdenticalAcrossRuns) {
  const auto a = net::zipf_mix(500);
  const auto b = net::zipf_mix(500);
  EXPECT_EQ(a, b);
  // Prefix-stable: a longer replay extends the stream, never re-rolls it.
  const auto prefix = net::zipf_mix(100);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), a.begin()));

  const auto t1 = net::poisson_arrivals_us(1000, 5000.0, 23);
  const auto t2 = net::poisson_arrivals_us(1000, 5000.0, 23);
  EXPECT_EQ(t1, t2);  // exact double equality: same seed, same bits
  EXPECT_TRUE(std::is_sorted(t1.begin(), t1.end()));
  EXPECT_NE(t1, net::poisson_arrivals_us(1000, 5000.0, 24));
}

TEST(Loadgen, PercentileSorted) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.5), 51);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.99), 100);
  EXPECT_DOUBLE_EQ(net::percentile_sorted(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(net::percentile_sorted({}, 0.5), 0);
}

// --------------------------------------------------------------------------
// Socket helpers

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << strerror(errno);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void set_recv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

/// Stateful line reader: returns exactly `n` lines (fewer on EOF or the
/// 10s guard timeout), keeping any over-read bytes buffered for the next
/// call — pipelined responses often arrive batched in one recv.
struct LineReader {
  int fd;
  std::string buf;

  explicit LineReader(int fd_in) : fd(fd_in) { set_recv_timeout(fd, 10.0); }

  std::vector<std::string> read(std::size_t n) {
    std::vector<std::string> lines;
    char chunk[4096];
    while (lines.size() < n) {
      std::size_t nl = 0;
      while (lines.size() < n && (nl = buf.find('\n')) != std::string::npos) {
        lines.push_back(buf.substr(0, nl));
        buf.erase(0, nl + 1);
      }
      if (lines.size() >= n) break;
      const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
      if (r <= 0) break;  // EOF or timeout
      buf.append(chunk, static_cast<std::size_t>(r));
    }
    return lines;
  }
};

/// One-shot read of `n` lines; use LineReader directly when a later read
/// on the same connection must see bytes batched with the first.
std::vector<std::string> read_lines(int fd, std::size_t n) {
  return LineReader(fd).read(n);
}

/// True when the peer has closed: recv returns 0 within the timeout.
bool reads_eof(int fd, double timeout_s = 10.0) {
  set_recv_timeout(fd, timeout_s);
  char c = 0;
  return ::recv(fd, &c, 1, 0) == 0;
}

std::vector<std::string> fixture_requests() {
  std::ifstream in(std::string(HPCARBON_TEST_DATA_DIR) + "/requests.jsonl");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// In-process server on an ephemeral loopback port (and optionally a
/// UDS); run() on a private thread, drained+joined on destruction. Each
/// TestServer gets its own metrics registry — the process-global one
/// accumulates across every test in this binary, which would break the
/// exact transport-counter assertions below.
struct TestServer {
  obs::MetricsRegistry registry;
  net::Server server;
  std::thread io;

  explicit TestServer(net::ServerOptions opts)
      : server([&] {
          if (opts.tcp.empty() && opts.unix_path.empty()) {
            opts.tcp = "127.0.0.1:0";
          }
          if (opts.serve.registry == nullptr) opts.serve.registry = &registry;
          return std::move(opts);
        }()) {
    server.start();
    io = std::thread([this] { server.run(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (io.joinable()) {
      server.begin_drain();
      io.join();
    }
  }
  int connect() const {
    return server.tcp_endpoint().empty()
               ? net::connect_unix(server.options().unix_path)
               : net::connect_tcp(server.tcp_endpoint());
  }
};

std::string test_socket_path(const char* name) {
  return std::string("/tmp/hpcarbon_test_") + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --------------------------------------------------------------------------
// End-to-end: byte-identity with the batch front-end

void expect_socket_matches_batch(net::ServerOptions opts) {
  const auto requests = fixture_requests();
  ASSERT_EQ(requests.size(), 9u);
  serve::Engine oracle;  // same defaults as the server's engine
  const auto expected = oracle.handle_batch(requests);

  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  std::string payload;
  for (const auto& r : requests) payload += r + "\n";
  send_all(fd, payload);
  const auto got = read_lines(fd, requests.size());
  ::close(fd);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "response " << i << " diverged";
  }
}

TEST(NetServer, TcpByteIdenticalToBatchInlineMode) {
  net::ServerOptions opts;
  opts.workers = 0;
  expect_socket_matches_batch(std::move(opts));
}

TEST(NetServer, TcpByteIdenticalToBatchWorkerMode) {
  net::ServerOptions opts;
  opts.workers = 2;
  expect_socket_matches_batch(std::move(opts));
}

TEST(NetServer, UnixSocketByteIdenticalToBatch) {
  net::ServerOptions opts;
  opts.unix_path = test_socket_path("uds");
  opts.workers = 2;
  expect_socket_matches_batch(std::move(opts));
  EXPECT_NE(::access(test_socket_path("uds").c_str(), F_OK), 0)
      << "drain must unlink the socket file";
}

/// A stats response without its net_* fields: those count socket
/// traffic, which an off-socket engine never sees (they read 0 there).
std::string without_net_fields(const std::string& line) {
  json::Value doc = json::Value::parse(line);
  json::Value result = json::Value::object();
  for (const auto& [key, value] : doc.find("result")->members()) {
    if (key.rfind("net_", 0) != 0) result.set(key, value);
  }
  doc.set("result", std::move(result));
  return doc.dump();
}

TEST(NetServer, StatsLinesAreSequencePointsInWorkerMode) {
  // A control line answers after every earlier line on its connection and
  // before every later one, as handle_batch does. The stats line after q6
  // also keeps the duplicate q7 from racing q1, so both sides count the
  // same hits, misses and trace lookups.
  auto requests = fixture_requests();
  ASSERT_EQ(requests.size(), 9u);
  const std::string stats = R"({"op":"stats","id":"s"})";
  requests.insert(requests.begin() + 6, stats);
  requests.push_back(stats);

  obs::MetricsRegistry oracle_reg;
  serve::TraceStore oracle_traces(oracle_reg);
  serve::ServeOptions oracle_opts;
  oracle_opts.registry = &oracle_reg;
  oracle_opts.traces = &oracle_traces;
  serve::Engine oracle(oracle_opts);
  const auto expected = oracle.handle_batch(requests);

  obs::MetricsRegistry reg;
  serve::TraceStore traces(reg);
  net::ServerOptions opts;
  opts.workers = 3;
  opts.serve.registry = &reg;
  opts.serve.traces = &traces;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  std::string payload;
  for (const auto& r : requests) payload += r + "\n";
  send_all(fd, payload);
  const auto got = read_lines(fd, requests.size());
  ::close(fd);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (requests[i] == stats) {
      EXPECT_EQ(without_net_fields(got[i]), without_net_fields(expected[i]))
          << "stats line " << i << " diverged";
    } else {
      EXPECT_EQ(got[i], expected[i]) << "response " << i << " diverged";
    }
  }
}

TEST(NetServer, IdleMetricsSnapshotByteIdenticalToPipe) {
  // {"op":"metrics"} on an idle engine is transport-blind: the socket
  // front-end's first response matches a fresh pipe engine byte for
  // byte. Both sides use private registries (same instrument set, all
  // zeros) and the JSON rendering excludes the transport-scoped
  // hpcarbon_net_* / hpcarbon_process_* series, so the accepted
  // connection itself cannot leak into the comparison.
  obs::MetricsRegistry pipe_reg;
  serve::ServeOptions pipe_opts;
  pipe_opts.registry = &pipe_reg;
  serve::Engine pipe_engine(pipe_opts);
  const std::string line = R"({"op":"metrics","id":"m"})";
  const std::string expected = pipe_engine.handle_line(line);

  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, line + "\n");
  const auto got = read_lines(fd, 1);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected);
}

TEST(NetServer, PipelinedSplitWritesAnswerInOrder) {
  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();

  std::string payload;
  constexpr int kN = 40;
  for (int i = 0; i < kN; ++i) {
    payload += R"({"op":"embodied","id":"q)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  // Worst-case framing: the whole pipeline dribbles in 3-byte writes.
  for (std::size_t i = 0; i < payload.size(); i += 3) {
    send_all(fd, std::string_view(payload).substr(i, 3));
  }
  const auto got = read_lines(fd, kN);
  ::close(fd);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_NE(got[i].find("\"id\":\"q" + std::to_string(i) + "\""),
              std::string::npos)
        << "response " << i << " out of order: " << got[i];
    EXPECT_NE(got[i].find("\"ok\":true"), std::string::npos);
  }
}

TEST(NetServer, HalfCloseStillAnswersTrailingLine) {
  net::ServerOptions opts;
  opts.workers = 0;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  // No trailing newline, then shutdown(WR): getline semantics require an
  // answer, delivered on the half-open socket before EOF.
  send_all(fd, R"({"op":"embodied","id":"last","params":{"part":"epyc-7763"}})");
  ::shutdown(fd, SHUT_WR);
  const auto got = read_lines(fd, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NE(got[0].find("\"id\":\"last\""), std::string::npos);
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
}

TEST(NetServer, OversizeLineMatchesEngineBytes) {
  // The contract behind the shared limit: socket framer (which never
  // buffers the line) and engine (which has it in hand) must reject with
  // identical bytes.
  std::string big = R"({"op":"embodied","params":{"part":")";
  big.append(serve::kMaxRequestLineBytes, 'x');
  big += "\"}}";

  serve::Engine oracle;
  const std::string expected = oracle.handle_line(big);
  EXPECT_NE(expected.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(expected.find(std::to_string(big.size())), std::string::npos);

  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, big + "\n" +
                   R"({"op":"embodied","id":"after","params":{"part":"epyc-7763"}})" +
                   "\n");
  const auto got = read_lines(fd, 2);
  ::close(fd);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], expected);
  // The connection resynced at the newline and keeps serving.
  EXPECT_NE(got[1].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(got[1].find("\"ok\":true"), std::string::npos);
}

TEST(NetServer, MaxConnsRefusesExtraConnections) {
  net::ServerOptions opts;
  opts.workers = 0;
  opts.max_conns = 2;
  TestServer ts(std::move(opts));
  const int c1 = ts.connect();
  const int c2 = ts.connect();
  // Give the accept loop a chance to register both before the third.
  send_all(c1, "{\"op\":\"stats\"}\n");
  ASSERT_EQ(read_lines(c1, 1).size(), 1u);
  const int c3 = ts.connect();
  EXPECT_TRUE(reads_eof(c3)) << "connection over max-conns must be closed";
  // The first two still work.
  send_all(c2, "{\"op\":\"stats\"}\n");
  EXPECT_EQ(read_lines(c2, 1).size(), 1u);
  ::close(c1);
  ::close(c2);
  ::close(c3);
}

TEST(NetServer, BoundedInflightShedsInOrderAndRecovers) {
  net::ServerOptions opts;
  opts.workers = 1;
  opts.max_inflight = 1;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();

  // A cold scheduler query pins the only worker for milliseconds; the
  // pipelined burst behind it overflows the 1-deep queue and must be
  // answered with explicit shed errors, in order, without stalling.
  std::string payload =
      R"({"op":"sched","id":"head","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kBurst = 50;
  for (int i = 0; i < kBurst; ++i) {
    payload += R"({"op":"embodied","id":"b)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  send_all(fd, payload);
  const auto got = read_lines(fd, 1 + kBurst);
  ASSERT_EQ(got.size(), 1u + kBurst) << "every request must be answered";
  EXPECT_NE(got[0].find("\"id\":\"head\""), std::string::npos);
  EXPECT_NE(got[0].find("\"ok\":true"), std::string::npos);
  std::size_t shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const std::string& r = got[1 + static_cast<std::size_t>(i)];
    if (r.find("request shed") != std::string::npos) {
      ++shed;
      EXPECT_NE(r.find("\"ok\":false"), std::string::npos);
    } else {
      EXPECT_NE(r.find("\"id\":\"b" + std::to_string(i) + "\""),
                std::string::npos)
          << "non-shed response out of order: " << r;
    }
  }
  EXPECT_GT(shed, 0u) << "the overloaded queue must shed";
  EXPECT_EQ(ts.server.stats().requests_shed.value(), shed);

  // After the burst the queue is empty again: new requests succeed.
  send_all(fd, R"({"op":"embodied","id":"post","params":{"part":"epyc-7763"}})"
               "\n");
  const auto after = read_lines(fd, 1);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_NE(after[0].find("\"ok\":true"), std::string::npos);
  ::close(fd);
}

TEST(NetServer, StatsReportsTransportCounters) {
  net::ServerOptions opts;
  opts.workers = 2;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  send_all(fd, "{\"op\":\"embodied\",\"params\":{\"part\":\"epyc-7763\"}}\n");
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  send_all(fd, "{\"op\":\"stats\"}\n");
  const auto got = read_lines(fd, 1);
  ::close(fd);
  ASSERT_EQ(got.size(), 1u);
  const std::string& s = got[0];
  EXPECT_NE(s.find("\"net_accepted\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_active\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_shed\":0"), std::string::npos) << s;
  // Bytes flowed both ways by the time the stats line was answered.
  EXPECT_EQ(s.find("\"net_bytes_in\":0"), std::string::npos) << s;
  EXPECT_EQ(s.find("\"net_bytes_out\":0"), std::string::npos) << s;
  EXPECT_NE(s.find("\"net_max_inflight\":"), std::string::npos) << s;
}

TEST(NetServer, IdleTimeoutClosesQuietConnections) {
  net::ServerOptions opts;
  opts.workers = 0;
  opts.idle_timeout_s = 0.15;
  TestServer ts(std::move(opts));
  const int fd = ts.connect();
  EXPECT_TRUE(reads_eof(fd, 5.0)) << "idle connection must be closed";
  ::close(fd);
}

TEST(NetServer, GracefulDrainAnswersInFlightThenExits) {
  net::ServerOptions opts;
  opts.workers = 1;
  net::Server server([&] {
    opts.tcp = "127.0.0.1:0";
    return std::move(opts);
  }());
  server.start();
  std::thread io([&] { server.run(); });

  const int fd = net::connect_tcp(server.tcp_endpoint());
  std::string payload =
      R"({"op":"sched","id":"slow","params":{"policy":"net-benefit"}})" "\n";
  constexpr int kTail = 20;
  for (int i = 0; i < kTail; ++i) {
    payload += R"({"op":"embodied","id":"t)" + std::to_string(i) +
               R"(","params":{"part":"epyc-7763"}})" + "\n";
  }
  send_all(fd, payload);
  // The first response proves the server has read (and queued) the whole
  // burst; drain must now finish all of it, flush, close, and return.
  LineReader reader(fd);
  EXPECT_EQ(reader.read(1).size(), 1u);
  server.begin_drain();
  const auto rest = reader.read(kTail);
  EXPECT_EQ(rest.size(), static_cast<std::size_t>(kTail))
      << "drain must answer everything already received";
  EXPECT_TRUE(reads_eof(fd)) << "drained server closes the connection";
  ::close(fd);
  io.join();  // run() returned: full drain
  EXPECT_THROW((void)net::connect_tcp(server.tcp_endpoint()), Error)
      << "listeners must be closed during drain";
}

TEST(NetServer, SigtermTriggersGracefulDrain) {
  net::ServerOptions opts;
  opts.workers = 0;
  net::Server server([&] {
    opts.tcp = "127.0.0.1:0";
    return std::move(opts);
  }());
  server.start();
  net::install_signal_drain(server);
  std::thread io([&] { server.run(); });

  const int fd = net::connect_tcp(server.tcp_endpoint());
  send_all(fd, "{\"op\":\"stats\"}\n");
  EXPECT_EQ(read_lines(fd, 1).size(), 1u);
  std::raise(SIGTERM);
  EXPECT_TRUE(reads_eof(fd));
  ::close(fd);
  io.join();
  net::uninstall_signal_drain();
}

// --------------------------------------------------------------------------
// Concurrency hammer (race_stress label: the TSan job runs this hot):
// several client threads pipeline bursts over their own connections while
// the worker pool answers; every connection must see its own responses,
// in its own order, byte-exact against a sequential oracle.

TEST(NetRaceStress, ConcurrentClientsSeeOrderedCorrectResponses) {
  net::ServerOptions opts;
  opts.workers = 3;
  TestServer ts(std::move(opts));

  const auto mix = net::zipf_mix(64);
  serve::Engine oracle;
  std::vector<std::string> expected;
  expected.reserve(mix.size());
  for (const auto& line : mix) expected.push_back(oracle.handle_line(line));

  constexpr int kClients = 4;
  constexpr int kRounds = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        int fd = -1;
        try {
          fd = ts.connect();
        } catch (const Error&) {
          failures.fetch_add(1);  // refused connect counts as a failure
          continue;
        }
        std::string payload;
        for (const auto& line : mix) payload += line + "\n";
        std::string_view rest = payload;
        while (!rest.empty()) {
          const ssize_t n =
              ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
          if (n <= 0) {
            failures.fetch_add(1);
            break;
          }
          rest.remove_prefix(static_cast<std::size_t>(n));
        }
        const auto got = read_lines(fd, mix.size());
        ::close(fd);
        if (got.size() != expected.size()) {
          failures.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i] != expected[i]) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ts.server.stats().connections_accepted.value(),
            static_cast<std::uint64_t>(kClients * kRounds));
}

}  // namespace
