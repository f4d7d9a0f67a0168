#include "net/listener.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/error.h"

namespace hpcarbon::net {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw Error("net: " + what + ": " + std::strerror(errno));
}

struct AddrInfoHolder {
  addrinfo* res = nullptr;
  ~AddrInfoHolder() {
    if (res != nullptr) freeaddrinfo(res);
  }
};

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw Error("net: unix socket path must be 1.." +
                std::to_string(sizeof(addr.sun_path) - 1) + " bytes, got '" +
                path + "'");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

void split_host_port(const std::string& host_port, std::string* host,
                     std::string* port) {
  const std::size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon + 1 == host_port.size()) {
    throw Error("net: expected HOST:PORT, got '" + host_port + "'");
  }
  *host = host_port.substr(0, colon);
  *port = host_port.substr(colon + 1);
  // "[::1]:80" — strip the IPv6 brackets for getaddrinfo.
  if (host->size() >= 2 && host->front() == '[' && host->back() == ']') {
    *host = host->substr(1, host->size() - 2);
  }
  if (host->empty()) *host = "0.0.0.0";
}

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    sys_fail("fcntl(O_NONBLOCK)");
  }
}

namespace {

/// Resolve and apply `op` (bind or connect) over the candidate addresses;
/// returns the connected/bound socket fd.
int tcp_socket_for(const std::string& host_port, bool for_listen) {
  std::string host, port;
  split_host_port(host_port, &host, &port);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_listen) hints.ai_flags = AI_PASSIVE;
  AddrInfoHolder info;
  const int rc = getaddrinfo(host.c_str(), port.c_str(), &hints, &info.res);
  if (rc != 0) {
    throw Error("net: cannot resolve '" + host_port +
                "': " + gai_strerror(rc));
  }

  int last_errno = 0;
  for (addrinfo* ai = info.res; ai != nullptr; ai = ai->ai_next) {
    const int fd = socket(ai->ai_family,
                          ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (for_listen) {
      const int one = 1;
      setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (bind(fd, ai->ai_addr, ai->ai_addrlen) == 0) return fd;
    } else {
      if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) return fd;
    }
    last_errno = errno;
    close(fd);
  }
  errno = last_errno;
  sys_fail((for_listen ? "bind '" : "connect '") + host_port + "'");
}

}  // namespace

int listen_tcp(const std::string& host_port, int backlog) {
  const int fd = tcp_socket_for(host_port, /*for_listen=*/true);
  if (listen(fd, backlog) < 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    sys_fail("listen '" + host_port + "'");
  }
  set_nonblocking(fd);
  return fd;
}

void remove_stale_socket(const std::string& path) {
  struct stat st{};
  if (lstat(path.c_str(), &st) != 0) return;
  if (!S_ISSOCK(st.st_mode)) {
    throw Error("net: '" + path + "' exists and is not a socket");
  }
  // Probe before unlinking: a socket whose listener is gone refuses the
  // connect, while a live one accepts it (or, with a full backlog, asks a
  // non-blocking caller to retry).
  const sockaddr_un addr = unix_addr(path);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) sys_fail("socket(AF_UNIX)");
  const int rc =
      connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  const int saved = errno;
  close(fd);
  if (rc == 0 || saved == EAGAIN) {
    throw Error("net: '" + path + "' is in use");
  }
  if (saved == ENOENT) return;  // removed since the lstat
  if (saved != ECONNREFUSED) {
    errno = saved;
    sys_fail("probe unix '" + path + "'");
  }
  unlink(path.c_str());
}

int listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = unix_addr(path);
  remove_stale_socket(path);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_UNIX)");
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      listen(fd, backlog) < 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    sys_fail("bind/listen unix '" + path + "'");
  }
  set_nonblocking(fd);
  return fd;
}

std::string bound_endpoint(int fd) {
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&ss), &len) < 0) {
    sys_fail("getsockname");
  }
  char host[INET6_ADDRSTRLEN] = {};
  unsigned port = 0;
  if (ss.ss_family == AF_INET) {
    const auto* a = reinterpret_cast<const sockaddr_in*>(&ss);
    inet_ntop(AF_INET, &a->sin_addr, host, sizeof(host));
    port = ntohs(a->sin_port);
  } else if (ss.ss_family == AF_INET6) {
    const auto* a = reinterpret_cast<const sockaddr_in6*>(&ss);
    inet_ntop(AF_INET6, &a->sin6_addr, host, sizeof(host));
    port = ntohs(a->sin6_port);
  } else {
    throw Error("net: bound_endpoint on a non-TCP socket");
  }
  return std::string(host) + ":" + std::to_string(port);
}

int connect_tcp(const std::string& host_port) {
  return tcp_socket_for(host_port, /*for_listen=*/false);
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = unix_addr(path);
  const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket(AF_UNIX)");
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    sys_fail("connect unix '" + path + "'");
  }
  return fd;
}

}  // namespace hpcarbon::net
