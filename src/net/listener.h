// Socket plumbing for the network front-end: bind/listen/connect for TCP
// ("host:port") and Unix-domain stream sockets, plus the tiny fd helpers
// the event loop needs. All fds come back non-blocking and close-on-exec.
//
// TCP addresses are resolved with getaddrinfo, so "127.0.0.1:8080",
// "localhost:0" and "0.0.0.0:9000" all work; port 0 binds an ephemeral
// port and bound_endpoint() reports the actual one (tests and the netload
// bench rely on this). Errors throw hpcarbon::Error with the failing
// call and errno text — callers never see a raw -1.
#pragma once

#include <string>

namespace hpcarbon::net {

/// "host:port" -> non-blocking listening TCP socket (SO_REUSEADDR,
/// IPv4/IPv6 as resolved). `backlog` is the accept queue depth.
int listen_tcp(const std::string& host_port, int backlog = 512);

/// Filesystem path -> non-blocking listening Unix-domain stream socket.
/// `path` is cleared first with remove_stale_socket.
int listen_unix(const std::string& path, int backlog = 512);

/// Ready `path` for a Unix-domain bind: unlink a socket file left there
/// by an unclean shutdown, which refuses a connect. Throw hpcarbon::Error
/// ("'PATH' is in use") when a listener still accepts on it, and when
/// `path` holds anything else (a regular file, a directory); neither is
/// ever removed.
void remove_stale_socket(const std::string& path);

/// The "ip:port" a listening TCP socket actually bound (resolves port 0).
std::string bound_endpoint(int fd);

/// Blocking-connect client helpers (tests, the netload load generator,
/// CI smoke scripts). The returned fd is left *blocking*; callers that
/// want non-blocking IO call set_nonblocking themselves.
int connect_tcp(const std::string& host_port);
int connect_unix(const std::string& path);

void set_nonblocking(int fd);

/// Split "host:port" on the last ':' (IPv6 literals keep their colons).
/// Throws on a missing separator or empty port.
void split_host_port(const std::string& host_port, std::string* host,
                     std::string* port);

}  // namespace hpcarbon::net
