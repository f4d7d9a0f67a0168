// The benchmark's own load client: one thread, a few pipelined loopback
// TCP connections, epoll for readiness and a timerfd for the send
// schedule (so waits have nanosecond resolution and never spin).
//
// Closed loop: every connection keeps `depth` requests in flight and
// sends the next one when a response arrives. Open loop: requests go out
// on a fixed schedule whatever is outstanding; latency runs from each
// request's due time, so a stall shows in every request queued behind it.
//
// Each response is reduced to a 64-bit hash of its bytes (checked against
// the in-process engine after the timed window); responses the caller
// asks to keep are stored whole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "streams.h"

namespace perfbench {

struct PhaseResult {
  std::size_t sent = 0;
  std::size_t received = 0;
  bool lost_connection = false;
  double elapsed_s = 0;
  /// Per request, in request order: hash of the response line.
  std::vector<std::uint64_t> hash;
  /// Open loop only: per request, due -> response read, µs.
  std::vector<double> latency_us;
  /// Traced open loop only: per request, due -> written to the socket, µs.
  std::vector<double> lag_us;
  /// Per request: when its response was read (absolute ns, 0 = never).
  std::vector<std::uint64_t> read_ns;
  /// Phase start (absolute ns); open-loop due times are offsets from it.
  std::uint64_t start_ns = 0;
  /// Traced open loop only: absolute due / written stamps (ns).
  std::vector<std::uint64_t> due_ns, written_ns;
  /// Responses kept whole: (request, bytes).
  std::vector<std::pair<std::size_t, std::string>> kept;
};

std::uint64_t hash_bytes(const std::string& s);

class Client {
 public:
  Client(const std::string& endpoint, std::size_t conns);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Requests stream.line(first + i), i = 0.. until `seconds` pass, with
  /// `depth` in flight per connection; then drains.
  PhaseResult closed_loop(const Stream& stream, std::size_t first,
                          std::size_t depth, double seconds,
                          const std::function<bool(std::size_t)>& keep);

  /// Sends stream.line(first + i) at due_ns[i] after the phase start.
  PhaseResult open_loop(const Stream& stream, std::size_t first,
                        const std::vector<std::uint64_t>& due_ns, bool traced,
                        const std::function<bool(std::size_t)>& keep);

 private:
  struct Conn;
  PhaseResult run(const Stream& stream, std::size_t first, std::size_t depth,
                  double seconds, const std::vector<std::uint64_t>* due_ns,
                  bool traced, const std::function<bool(std::size_t)>& keep);

  std::vector<Conn> conns_;
  int epoll_fd_ = -1;
  int timer_fd_ = -1;
};

}  // namespace perfbench
