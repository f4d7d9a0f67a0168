#include "cli/metrics_tool.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <string>

#include "cli/dispatch.h"
#include "core/error.h"
#include "net/listener.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/engine.h"

namespace hpcarbon::cli {

namespace {

/// One scrape: connect, read to EOF, return the exposition bytes.
std::string scrape_unix(const std::string& path) {
  const int fd = net::connect_unix(path);
  std::string out;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const std::string why = std::strerror(errno);
      ::close(fd);
      throw Error("metrics: read from " + path + " failed: " + why);
    }
    break;  // EOF: the server sends one exposition and closes
  }
  ::close(fd);
  return out;
}

}  // namespace

int cmd_metrics(int argc, char** argv) {
  std::string unix_path;
  bool local = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix") {
      unix_path = flag_value("--unix", argc, argv, i);
    } else if (arg == "--local") {
      local = true;
    } else {
      throw Error("unknown metrics flag '" + arg + "' (see `hpcarbon help`)");
    }
  }
  if (local != unix_path.empty()) {  // neither or both
    std::cerr << "hpcarbon metrics: pass exactly one of --unix PATH (scrape "
                 "a daemon) or --local (this process's registry)\n";
    return 2;
  }
  if (local) {
    // A fresh CLI process has an empty registry; constructing the serve
    // engine registers the full instrument catalog (all zeros), which is
    // exactly what a format smoke wants to see.
    serve::Engine engine;
    std::cout << obs::to_prometheus(engine.registry().snapshot());
    return 0;
  }
  std::cout << scrape_unix(unix_path);
  return 0;
}

}  // namespace hpcarbon::cli
