// Unix-domain metrics scrape endpoint (`hpcarbon serve --metrics-unix`).
//
// The daemon's data plane speaks line-delimited JSON; operators' scrape
// tooling wants Prometheus text. Rather than multiplexing the two on one
// socket, the daemon exposes a second, trivially simple endpoint: each
// connection receives one full Prometheus exposition of the registry and
// is closed. Every subsystem records into the registry at the event, so a
// scrape is a plain snapshot with no sync step. `hpcarbon metrics
// --unix PATH` and any netcat-style scraper read it without speaking a
// protocol; the CI loopback smoke validates the format with
// tools/check_prometheus.py.
//
// One blocking accept-loop thread; stop() closes the listener, which
// unblocks accept and joins the thread. No epoll, no pipelining — a
// scrape every few seconds is not a data plane.
#pragma once

#include <string>
#include <thread>

#include "obs/metrics.h"

namespace hpcarbon::obs {

class ScrapeServer {
 public:
  /// `registry` nullptr selects MetricsRegistry::global().
  explicit ScrapeServer(std::string unix_path,
                        MetricsRegistry* registry = nullptr);
  ~ScrapeServer();  // stop()

  ScrapeServer(const ScrapeServer&) = delete;
  ScrapeServer& operator=(const ScrapeServer&) = delete;

  /// Bind + listen + spawn the accept thread. Throws hpcarbon::Error on
  /// any socket failure. A stale socket file at the path is unlinked
  /// first; a socket a listener still serves, or any other file there,
  /// is an error and is left alone (net::remove_stale_socket).
  void start();
  /// Close the listener, join the accept thread and unlink the socket
  /// start() bound; idempotent, and a no-op when start() never bound.
  void stop();

  const std::string& path() const { return path_; }

 private:
  void accept_loop();

  std::string path_;
  MetricsRegistry* registry_;
  int listen_fd_ = -1;
  std::thread thread_;
};

}  // namespace hpcarbon::obs
