#pragma once
// Measurement helpers: clocks, process counters read from /proc, order
// statistics, and the benchmark's own span log.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// User plus system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// CPU time of the whole machine from /proc/stat, in clock ticks: the
/// total and the part stolen by the hypervisor.
struct MachineTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

inline MachineTicks read_machine_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  MachineTicks t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

struct ProcStatus {
  double rss_mb = 0.0;   ///< VmRSS
  double peak_mb = 0.0;  ///< VmHWM
  long threads = 0;
  long fds = 0;
};

inline ProcStatus read_proc_status() {
  ProcStatus st;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmRSS:") st.rss_mb = value / 1024.0;
    if (key == "VmHWM:") st.peak_mb = value / 1024.0;
    if (key == "Threads:") st.threads = static_cast<long>(value);
  }
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++st.fds;
  }
  return st;
}

/// Loopback TCP sockets as listed in /proc/net/tcp{,6}.
struct TcpCounts {
  std::size_t time_wait = 0;    ///< every TIME-WAIT entry in this network namespace
  std::size_t fleet_conns = 0;  ///< connections to or from `ports`, one entry each
};

inline TcpCounts read_tcp(const std::set<std::uint16_t>& ports) {
  TcpCounts c;
  for (const char* path : {"/proc/net/tcp", "/proc/net/tcp6"}) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string slot, local, remote, state;
      fields >> slot >> local >> remote >> state;
      const auto port_of = [](const std::string& addr) {
        const std::size_t colon = addr.rfind(':');
        return static_cast<std::uint16_t>(std::stoul(addr.substr(colon + 1), nullptr, 16));
      };
      if (local.empty() || remote.empty()) continue;
      const bool time_wait = state == "06";
      const bool listen = state == "0A";
      if (time_wait) ++c.time_wait;
      if (listen || ports.empty()) continue;
      // A connection is counted once: by its client end while that exists,
      // else by the server end left in TIME-WAIT.
      if (ports.count(port_of(remote)) != 0 || (time_wait && ports.count(port_of(local)) != 0)) {
        ++c.fleet_conns;
      }
    }
  }
  return c;
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The benchmark's own spans: one record per call into an engine layer,
/// kept in memory and written out when the run ends.  Spans of one
/// operation share a trace id; `parent` links a span to the one enclosing it.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
  };

  /// RAII span; a null log makes it inert.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t trace = 0, std::uint64_t parent = 0)
        : log_(log) {
      if (log_ == nullptr) return;
      rec_.name = name;
      rec_.trace = trace;
      rec_.parent = parent;
      rec_.id = log_->next_id_.fetch_add(1, std::memory_order_relaxed);
      rec_.start_ns = now_ns();
    }
    ~Scope() {
      if (log_ == nullptr) return;
      rec_.end_ns = now_ns();
      log_->add(std::move(rec_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const noexcept { return rec_.id; }

   private:
    SpanLog* log_;
    Record rec_;
  };

  /// Durations (ms) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.name == name) out.push_back(r.ms());
    }
    return out;
  }

  [[nodiscard]] std::uint64_t new_trace() noexcept {
    return next_trace_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    for (const Record& r : records_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"trace\":%llu,\"id\":%llu,\"parent\":%llu,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   r.name.c_str(), static_cast<unsigned long long>(r.trace),
                   static_cast<unsigned long long>(r.id), static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
    std::fclose(f);
  }

 private:
  // Spans of operations (trace != 0) are capped so a long traced run
  // cannot grow without limit; probe spans are always kept.
  static constexpr std::size_t kMaxOpRecords = 200000;

  void add(Record r) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (r.trace != 0 && op_records_ >= kMaxOpRecords) return;
    op_records_ += r.trace != 0 ? 1 : 0;
    records_.push_back(std::move(r));
  }

  mutable std::mutex mutex_;
  std::vector<Record> records_;
  std::size_t op_records_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_trace_{1};
};

}  // namespace pb
