// Measurement primitives the benchmark owns: exact nearest-rank
// percentiles over captured samples, and a span ledger that attributes
// the driver thread's wall time to named spans by self time.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pipebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
// CPU time of every thread of this process, and of the calling thread.
// Time the host takes a vCPU away for is not in either, so CPU-time
// figures move far less than wall time when neighbours load a shared
// machine.
inline std::int64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
inline std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

// A percentile taken from every captured sample, never from buckets.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // total sample count
  std::size_t beyond = 0;   // samples ranked above the reported one
};

// Nearest-rank q-quantile (rank = ceil(q * n)). Refused (nullopt) when
// fewer than 10 samples lie beyond it: such a tail is one or two samples,
// not a percentile.
inline std::optional<Percentile> nearest_rank(std::vector<double> samples,
                                              double q) {
  constexpr std::size_t kMinBeyond = 10;
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return Percentile{samples[rank - 1], n, n - rank};
}

// Driver-thread span ledger. Spans nest; a span's self time is its
// duration minus the time of the spans it encloses, so the self times of
// all spans plus the unspanned remainder add up to the loop's wall time.
// Disabled ledgers record nothing (only the `always` spans, which the
// untraced run needs for its validity checks).
class Ledger {
 public:
  struct Entry {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit Ledger(bool enabled) : enabled_(enabled) {}

  void begin(const char* name, bool always = false) {
    if (!enabled_ && !always) return;
    stack_.push_back(Open{name, now_ns(), 0});
  }
  // Must pair with the innermost begin() of a recorded span.
  void end(const char* name, bool always = false) {
    if (!enabled_ && !always) return;
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = now_ns() - open.start_ns;
    Entry& entry = entries_[name];
    ++entry.count;
    entry.total_ns += duration;
    entry.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }
  // Time a child outside the benchmark measured (e.g. a program
  // histogram's sum) is moved from `parent`'s self time to `name`.
  void carve(const char* parent, const char* name, std::int64_t ns,
             std::uint64_t count) {
    Entry& p = entries_[parent];
    Entry& c = entries_[name];
    p.self_ns -= ns;
    c.count += count;
    c.total_ns += ns;
    c.self_ns += ns;
  }

  const Entry& get(const std::string& name) const {
    static const Entry kEmpty{};
    const auto it = entries_.find(name);
    return it == entries_.end() ? kEmpty : it->second;
  }
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  bool enabled_;
  std::vector<Open> stack_;
  std::map<std::string, Entry> entries_;
};

// RAII span over a Ledger.
class Span {
 public:
  Span(Ledger& ledger, const char* name, bool always = false)
      : ledger_(ledger), name_(name), always_(always) {
    ledger_.begin(name_, always_);
  }
  ~Span() { ledger_.end(name_, always_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
  const char* name_;
  bool always_;
};

}  // namespace pipebench
