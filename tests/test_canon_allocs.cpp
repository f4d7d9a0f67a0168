// Allocation bound of request canonicalization.
//
// A warm cache hit runs serve::parse_query on every request, so its heap
// traffic is part of the hot path's cost. This binary replaces the global
// operator new/delete with counting wrappers over malloc/free and checks
// that one warm parse_query (the request already parsed into a
// json::Reader, one parse done before counting) makes at most the scratch
// fragment buffer and the canonical text allocations, plus the canonical
// policy name and headroom for the trio families.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/json.h"
#include "net/loadgen.h"
#include "serve/request.h"

namespace {

// Per thread, so allocations by any other thread cannot leak into a count.
thread_local long t_allocations = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++t_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace hpcarbon;

/// Allocations made by one parse_query of `line`, after a warm-up parse;
/// `op` receives the request's family name.
long warm_parse_allocations(const std::string& line, std::string* op) {
  json::Reader reader;
  const json::Reader::Ref root = reader.parse(line);
  *op = serve::parse_query(reader, root).op;  // warm-up
  const long before = t_allocations;
  const serve::Query q = serve::parse_query(reader, root);
  const long count = t_allocations - before;
  EXPECT_EQ(q.op, *op);
  return count;
}

TEST(CanonAllocs, CounterSeesHeapAllocations) {
  const long before = t_allocations;
  void* p = ::operator new(64);
  EXPECT_EQ(t_allocations - before, 1);
  ::operator delete(p);
}

TEST(CanonAllocs, WarmParseQueryStaysWithinItsAllocationBound) {
  std::vector<std::string> lines = net::query_universe();
  // The universe has no fleetsim query; cover the ninth-field family and a
  // full-length region list too.
  lines.push_back(
      R"({"op":"fleetsim","params":{"policy":"forecast-net-benefit",)"
      R"("process":"bursty","samples":4}})");
  lines.push_back(
      R"({"op":"sched","params":{"policy":"budget-aware","regions":)"
      R"(["MISO","TK","PJM","KN","ERCOT","CISO","ESO"]}})");
  for (const std::string& line : lines) {
    std::string op;
    const long count = warm_parse_allocations(line, &op);
    // sched and fleetsim also copy the canonical policy name.
    const long bound = (op == "sched" || op == "fleetsim") ? 4 : 2;
    EXPECT_GE(count, 1) << line;  // the canonical text itself
    EXPECT_LE(count, bound) << line;
  }
}

}  // namespace
