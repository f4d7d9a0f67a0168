#include "obs/scrape.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/error.h"
#include "net/listener.h"
#include "obs/export.h"

namespace hpcarbon::obs {

ScrapeServer::ScrapeServer(std::string unix_path, MetricsRegistry* registry)
    : path_(std::move(unix_path)),
      registry_(registry != nullptr ? registry : &MetricsRegistry::global()) {}

ScrapeServer::~ScrapeServer() { stop(); }

void ScrapeServer::start() {
  HPC_REQUIRE(listen_fd_ == -1, "ScrapeServer already started");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  HPC_REQUIRE(path_.size() < sizeof(addr.sun_path),
              "--metrics-unix path too long: " + path_);
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  net::remove_stale_socket(path_);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  HPC_REQUIRE(fd >= 0, std::string("metrics socket: ") + std::strerror(errno));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    const std::string what = std::strerror(errno);
    ::close(fd);
    throw Error("metrics socket bind/listen on '" + path_ + "': " + what);
  }
  listen_fd_ = fd;
  thread_ = std::thread([this] { accept_loop(); });
}

void ScrapeServer::stop() {
  if (listen_fd_ < 0) return;  // never bound, or already stopped
  // shutdown() unblocks a blocked accept() on Linux; close() finishes it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  thread_.join();
  ::unlink(path_.c_str());  // the socket start() bound
}

void ScrapeServer::accept_loop() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop(): drain and exit
    }
    const std::string body = to_prometheus(registry_->snapshot());
    std::size_t off = 0;
    while (off < body.size()) {
      const ssize_t n =
          ::send(client, body.data() + off, body.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;  // scraper went away mid-write
      off += static_cast<std::size_t>(n);
    }
    ::shutdown(client, SHUT_WR);
    ::close(client);
  }
}

}  // namespace hpcarbon::obs
