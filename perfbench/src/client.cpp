#include "client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "common.h"
#include "net/listener.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kTimerTag = std::numeric_limits<std::uint64_t>::max();
/// A phase that makes no progress for this long has lost its server.
constexpr std::uint64_t kStallNs = 30'000'000'000ull;

}  // namespace

std::uint64_t hash_bytes(const std::string& s) {
  return std::hash<std::string_view>{}(s);
}

struct Client::Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_scan = 0;
  std::deque<std::size_t> pending;  // requests awaiting a response, FIFO
  /// Traced runs: (request, cumulative byte offset of its end) not yet
  /// handed to the kernel.
  std::deque<std::pair<std::size_t, std::uint64_t>> unwritten;
  std::uint64_t queued_bytes = 0;
  std::uint64_t sent_bytes = 0;
  bool want_out = false;
};

Client::Client(const std::string& endpoint, std::size_t conns)
    : conns_(conns) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  timer_fd_ = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epoll_fd_ < 0 || timer_fd_ < 0) {
    throw std::runtime_error("client: epoll/timerfd setup failed");
  }
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.u64 = kTimerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &tev);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    c.fd = hpcarbon::net::connect_tcp(endpoint);
    hpcarbon::net::set_nonblocking(c.fd);
    const int one = 1;
    setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev);
  }
}

Client::~Client() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (timer_fd_ >= 0) close(timer_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

PhaseResult Client::closed_loop(const Stream& stream, std::size_t first,
                                std::size_t depth, double seconds,
                                const std::function<bool(std::size_t)>& keep) {
  return run(stream, first, depth, seconds, nullptr, false, keep);
}

PhaseResult Client::open_loop(const Stream& stream, std::size_t first,
                              const std::vector<std::uint64_t>& due_ns,
                              bool traced,
                              const std::function<bool(std::size_t)>& keep) {
  return run(stream, first, 0, 0, &due_ns, traced, keep);
}

PhaseResult Client::run(const Stream& stream, std::size_t first,
                        std::size_t depth, double seconds,
                        const std::vector<std::uint64_t>* due,
                        bool traced,
                        const std::function<bool(std::size_t)>& keep) {
  PhaseResult r;
  const bool open = due != nullptr;
  const std::size_t total =
      open ? due->size() : stream.seq.size() - std::min(first, stream.seq.size());
  // Per-request results are sized for every request the phase could
  // send, so the process's memory does not grow with throughput.
  r.hash.assign(total, 0);
  r.read_ns.assign(total, 0);
  if (open) {
    r.latency_us.assign(total, 0);
    if (traced) {
      r.lag_us.assign(total, 0);
      r.due_ns.assign(total, 0);
      r.written_ns.assign(total, 0);
    }
  }
  for (Conn& c : conns_) {
    c.out.clear();
    c.out_off = 0;
    c.in.clear();
    c.in_scan = 0;
    c.pending.clear();
    c.unwritten.clear();
    c.queued_bytes = c.sent_bytes = 0;
  }

  const std::uint64_t t0 = mono_ns();
  r.start_ns = t0;
  const std::uint64_t stop_ns =
      t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool sending = true;

  auto enqueue = [&](Conn& c, std::size_t i) {
    const std::string& line = stream.line(first + i);
    c.out.append(line);
    c.out.push_back('\n');
    c.queued_bytes += line.size() + 1;
    c.pending.push_back(i);
    if (traced) c.unwritten.emplace_back(i, c.queued_bytes);
    ++r.sent;
    ++outstanding;
  };

  // Hands queued bytes to the kernel; false when the connection failed.
  auto flush = [&](std::size_t ci) -> bool {
    Conn& c = conns_[ci];
    while (c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        c.sent_bytes += static_cast<std::uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;
    }
    if (traced && !c.unwritten.empty()) {
      const std::uint64_t now = mono_ns();
      while (!c.unwritten.empty() && c.unwritten.front().second <= c.sent_bytes) {
        const std::size_t i = c.unwritten.front().first;
        r.written_ns[i] = now;
        c.unwritten.pop_front();
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
    const bool want = c.out_off < c.out.size();
    if (want != c.want_out) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = ci;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
      c.want_out = want;
    }
    return true;
  };

  // Consumes complete response lines; false when the connection failed.
  auto read_ready = [&](std::size_t ci) -> bool {
    Conn& c = conns_[ci];
    char buf[65536];
    for (;;) {
      const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      return false;  // EOF or error: the server dropped us
    }
    const std::uint64_t now = mono_ns();
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = c.in.find('\n', c.in_scan);
      if (nl == std::string::npos) {
        c.in_scan = c.in.size();
        break;
      }
      if (c.pending.empty()) return false;  // a response nobody asked for
      const std::size_t i = c.pending.front();
      c.pending.pop_front();
      --outstanding;
      ++r.received;
      const std::string_view line(c.in.data() + start, nl - start);
      r.hash[i] = std::hash<std::string_view>{}(line);
      r.read_ns[i] = now;
      if (keep && keep(first + i)) r.kept.emplace_back(i, std::string(line));
      if (open) {
        const std::uint64_t due_abs = t0 + (*due)[i];
        r.latency_us[i] = static_cast<double>(now - due_abs) / 1e3;
        if (traced) {
          r.due_ns[i] = due_abs;
          r.lag_us[i] =
              static_cast<double>(r.written_ns[i] - std::min(r.written_ns[i], due_abs)) / 1e3;
        }
      } else if (sending && next < total) {
        if (now < stop_ns) {
          enqueue(c, next++);
        } else {
          sending = false;
        }
      }
      start = nl + 1;
      c.in_scan = start;
    }
    if (start > 0) {
      c.in.erase(0, start);
      c.in_scan -= start;
    }
    return true;
  };

  if (!open) {
    for (std::size_t d = 0; d < depth; ++d) {
      for (Conn& c : conns_) {
        if (next < total) enqueue(c, next++);
      }
    }
  }

  std::uint64_t last_progress = t0;
  std::size_t last_received = 0;
  epoll_event events[16];
  while (!r.lost_connection) {
    const std::uint64_t now = mono_ns();
    if (open) {
      while (next < total && t0 + (*due)[next] <= now) {
        enqueue(conns_[next % conns_.size()], next);
        ++next;
      }
      if (next >= total) sending = false;
    } else if (now >= stop_ns) {
      sending = false;
    }
    for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
      if (conns_[ci].out_off < conns_[ci].out.size() && !flush(ci)) {
        r.lost_connection = true;
      }
    }
    if (!sending && outstanding == 0) break;
    if (r.received != last_received) {
      last_received = r.received;
      last_progress = now;
    } else if (now - last_progress > kStallNs) {
      r.lost_connection = true;
      break;
    }
    if (open && next < total) {
      itimerspec its{};
      const std::uint64_t at = t0 + (*due)[next];
      its.it_value.tv_sec = static_cast<time_t>(at / 1'000'000'000ull);
      its.it_value.tv_nsec = static_cast<long>(at % 1'000'000'000ull);
      timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
    }
    const int n = epoll_wait(epoll_fd_, events, 16, 100);
    for (int k = 0; k < n; ++k) {
      if (events[k].data.u64 == kTimerTag) {
        std::uint64_t expirations = 0;
        (void)!read(timer_fd_, &expirations, sizeof expirations);
        continue;
      }
      const auto ci = static_cast<std::size_t>(events[k].data.u64);
      if (events[k].events & (EPOLLERR | EPOLLHUP)) {
        r.lost_connection = true;
        break;
      }
      if ((events[k].events & EPOLLIN) && !read_ready(ci)) {
        r.lost_connection = true;
        break;
      }
      if ((events[k].events & EPOLLOUT) && !flush(ci)) {
        r.lost_connection = true;
        break;
      }
    }
  }
  r.elapsed_s = static_cast<double>(mono_ns() - t0) / 1e9;
  if (!open) {
    r.hash.resize(r.sent, 0);
    r.read_ns.resize(r.sent, 0);
  }
  return r;
}

}  // namespace perfbench
