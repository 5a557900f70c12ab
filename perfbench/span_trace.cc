#include "span_trace.h"

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {
namespace {

constexpr int kMaxNames = 64;
constexpr int kMaxDepth = 64;
// Individually recorded spans per name per thread for names that are not
// keep_all; enough to show the shape of a layer in the Chrome trace while
// bounding memory for names called millions of times.
constexpr uint32_t kRecordCap = 500;

// Log-linear duration histogram: exact below 64 ns, then 32 buckets per
// power of two (~3% resolution), up to 2^42 ns.
constexpr int kSubBuckets = 32;
constexpr int kMaxExp = 42;
constexpr int kBuckets = kSubBuckets * (kMaxExp - 5) + 2 * kSubBuckets;

int BucketOf(uint64_t ns) {
  if (ns < 2 * kSubBuckets) return static_cast<int>(ns);
  const int e = std::bit_width(ns) - 6;
  if (e >= kMaxExp - 5) return kBuckets - 1;
  return kSubBuckets * e + static_cast<int>(ns >> e);
}

double BucketMidNs(int idx) {
  if (idx < 2 * kSubBuckets) return idx;
  const int e = idx / kSubBuckets - 1;
  const uint64_t m = static_cast<uint64_t>(idx % kSubBuckets + kSubBuckets);
  return static_cast<double>(m << e) + static_cast<double>(uint64_t{1} << e) / 2;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct NameStats {
  uint64_t calls = 0;
  uint64_t events = 0;  // CountEvents total
  int64_t incl_ns = 0;
  int64_t self_ns = 0;
  uint32_t recorded = 0;
  uint32_t hist[kBuckets] = {};
};

struct Record {
  int64_t start = 0;
  int64_t end = 0;
  double arg = 0.0;
  int32_t parent = -1;  // index into the same thread's records
  int32_t name = 0;
};

struct Frame {
  int64_t start = 0;
  int64_t child_ns = 0;
  int32_t record = -1;
  int32_t name = 0;
};

struct ThreadState {
  int tid = 0;
  int depth = 0;
  Frame stack[kMaxDepth];
  std::vector<NameStats> stats = std::vector<NameStats>(kMaxNames);
  std::vector<Record> records;
};

struct Registry {
  std::mutex mu;
  std::vector<std::string> names;
  // Fixed-size so that registering a name never moves the flags other
  // threads read without the lock.
  bool keep_all[kMaxNames] = {};
  std::vector<std::unique_ptr<ThreadState>> threads;
  int64_t epoch = NowNs();
};

Registry& Reg() {
  static Registry* reg = new Registry();  // outlives every thread
  return *reg;
}

thread_local ThreadState* tls = nullptr;

ThreadState* Tls() {
  if (tls == nullptr) {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.threads.push_back(std::make_unique<ThreadState>());
    tls = reg.threads.back().get();
    tls->tid = static_cast<int>(reg.threads.size());
    tls->records.reserve(1 << 14);
  }
  return tls;
}

}  // namespace

int SpanIdFor(const char* name, bool keep_all) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (size_t i = 0; i < reg.names.size(); ++i) {
    if (reg.names[i] == name) return static_cast<int>(i);
  }
  if (reg.names.size() >= kMaxNames) {
    std::fprintf(stderr, "perfbench: more than %d span names\n", kMaxNames);
    std::abort();
  }
  reg.keep_all[reg.names.size()] = keep_all;
  reg.names.emplace_back(name);
  return static_cast<int>(reg.names.size() - 1);
}

void CountEvents(int id, uint64_t n) {
  Tls()->stats[static_cast<size_t>(id)].events += n;
}

ScopedSpan::ScopedSpan(int id, double arg) {
  ThreadState* t = Tls();
  if (t->depth >= kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack deeper than %d\n", kMaxDepth);
    std::abort();
  }
  Frame& f = t->stack[t->depth++];
  f.name = id;
  f.child_ns = 0;
  f.record = -1;
  NameStats& s = t->stats[static_cast<size_t>(id)];
  if (s.recorded < kRecordCap || Reg().keep_all[id]) {
    ++s.recorded;
    f.record = static_cast<int32_t>(t->records.size());
    Record r;
    r.name = id;
    r.arg = arg;
    r.parent = t->depth >= 2 ? t->stack[t->depth - 2].record : -1;
    t->records.push_back(r);
  }
  f.start = NowNs();
}

ScopedSpan::~ScopedSpan() {
  const int64_t end = NowNs();
  ThreadState* t = tls;
  Frame& f = t->stack[--t->depth];
  const int64_t dur = end - f.start;
  NameStats& s = t->stats[static_cast<size_t>(f.name)];
  ++s.calls;
  s.incl_ns += dur;
  s.self_ns += dur - f.child_ns;
  ++s.hist[BucketOf(static_cast<uint64_t>(dur))];
  if (t->depth > 0) t->stack[t->depth - 1].child_ns += dur;
  if (f.record >= 0) {
    Record& r = t->records[static_cast<size_t>(f.record)];
    r.start = f.start;
    r.end = end;
  }
}

void TraceReset() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (auto& t : reg.threads) {
    for (NameStats& s : t->stats) s = NameStats();
    t->records.clear();
  }
}

bool TraceDump(const char* path) {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": {");
  for (size_t n = 0; n < reg.names.size(); ++n) {
    NameStats total;
    for (auto& t : reg.threads) {
      const NameStats& s = t->stats[n];
      total.calls += s.calls;
      total.events += s.events;
      total.incl_ns += s.incl_ns;
      total.self_ns += s.self_ns;
      for (int b = 0; b < kBuckets; ++b) total.hist[b] += s.hist[b];
    }
    double pct[2] = {0.0, 0.0};
    const double qs[2] = {0.50, 0.99};
    for (int q = 0; q < 2 && total.calls > 0; ++q) {
      const double want = qs[q] * static_cast<double>(total.calls);
      uint64_t seen = 0;
      for (int b = 0; b < kBuckets; ++b) {
        seen += total.hist[b];
        if (static_cast<double>(seen) >= want) {
          pct[q] = BucketMidNs(b);
          break;
        }
      }
    }
    std::fprintf(out,
                 "%s\n  \"%s\": {\"calls\": %llu, \"events\": %llu, "
                 "\"incl_s\": %.9f, \"self_s\": %.9f, \"p50_ms\": %.6f, "
                 "\"p99_ms\": %.6f}",
                 n == 0 ? "" : ",", reg.names[n].c_str(),
                 static_cast<unsigned long long>(total.calls),
                 static_cast<unsigned long long>(total.events),
                 1e-9 * static_cast<double>(total.incl_ns),
                 1e-9 * static_cast<double>(total.self_ns), 1e-6 * pct[0],
                 1e-6 * pct[1]);
  }
  // Records: [name, tid, start_ns, end_ns, parent, arg]; parent indexes
  // this flat list (-1 for a root).
  std::fprintf(out, "\n},\n\"records\": [");
  bool first = true;
  int64_t offset = 0;
  for (auto& t : reg.threads) {
    for (const Record& r : t->records) {
      std::fprintf(out, "%s\n[\"%s\", %d, %lld, %lld, %lld, %.17g]",
                   first ? "" : ",", reg.names[static_cast<size_t>(r.name)].c_str(),
                   t->tid, static_cast<long long>(r.start - reg.epoch),
                   static_cast<long long>(r.end - reg.epoch),
                   static_cast<long long>(r.parent < 0 ? -1 : offset + r.parent),
                   r.arg);
      first = false;
    }
    offset += static_cast<int64_t>(t->records.size());
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
