// Measurement plumbing shared by the fdbench workloads: the result
// record, the span recorder of the traced run, the process-wide
// allocation counter, /proc readers and the UDP peer fleet that plays
// the monitored processes of the open-loop workloads.
//
// Everything here observes the library from outside: it times calls the
// benchmark itself makes into public functions, reads public stats, and
// reads the kernel's per-thread accounting. Nothing is compiled into src/.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/time.hpp"
#include "config/qos_config.hpp"

namespace fdbench {

using twfd::Tick;

/// Steady-clock nanoseconds — the same clock domain as twfd::SteadyClock,
/// so detector fire times (`when`) compare directly.
Tick now_ns();
/// Sleeps until steady-clock time `t` (returns at once if it has passed).
void sleep_until_ns(Tick t);

/// The step a workload is in, for the watchdog's report.
void set_phase(const char* phase);
const char* phase();

/// Heap allocations made by any thread since process start (replacement
/// global operator new in probe.cpp).
std::uint64_t allocs();

// --- results -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Open-loop validity: false when the generator fell behind schedule.
  bool valid = true;
  /// Headline slots every workload fills (BENCHMARK.json end_to_end).
  std::map<std::string, double> headline;
  /// The workload's own end-to-end metrics, printed by name and unit.
  std::vector<Metric> named;
  /// Per-layer metrics of the traced run (units in main.cpp's table).
  std::map<std::string, double> layer;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      errors.push_back(what);
    }
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/fdbench-traces";
};

// --- traced run ----------------------------------------------------------

/// One span: a named interval on the steady clock, its parent span (0 =
/// root) and the trace it belongs to. Spans stay in memory until
/// Tracer::write() at exit.
struct Span {
  const char* name = "";
  Tick start = 0;
  Tick end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint64_t items = 1;  ///< operations covered (batch spans)
};

class Tracer {
 public:
  /// Pre-sizes storage so recording does not allocate on measured paths.
  explicit Tracer(bool enabled, std::size_t reserve = 1 << 20);

  /// Records a span and returns its id (0 when tracing is off).
  std::uint64_t record(const char* name, Tick start, Tick end, std::uint64_t trace = 0,
                       std::uint64_t parent = 0, std::uint64_t items = 1);
  /// Every span named `name`, in recording order.
  [[nodiscard]] std::vector<Span> named(const char* name) const;
  /// Total duration / total items over the spans named `name` (ns per op).
  [[nodiscard]] double ns_per_item(const char* name) const;
  /// Writes one JSON object per span to `path` (directories created).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// --- statistics ------------------------------------------------------------

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Quantile of a bucketed histogram delta (non-cumulative bucket counts,
/// last = +Inf), interpolated inside the bucket, in the bounds' unit.
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets, double q);

// --- /proc -----------------------------------------------------------------

std::uint64_t rss_kb();
std::set<int> thread_ids();
/// CPU time consumed by one thread of this process, ns (schedstat).
std::uint64_t thread_cpu_ns(int tid);
std::uint64_t threads_cpu_ns(const std::set<int>& tids);
/// Threads that appeared in `after` and not in `before`.
std::set<int> new_threads(const std::set<int>& before, const std::set<int>& after);
std::uint64_t llc_bytes();
unsigned online_cpus();
/// Restricts thread `tid` (0 = the caller) to `count` of the CPUs the
/// process started with, from the `first`-th on; false when the host has
/// no such CPU.
bool pin_to_cores(int tid, std::size_t first, std::size_t count = SIZE_MAX);

/// Times `reps` direct config::chen_configure calls per tuple; µs per call.
double chen_configure_us(const std::vector<twfd::config::QosRequirements>& tuples,
                         Tracer& tracer, int reps);

/// Times batches of net::decode over `frames` (concatenated heartbeat
/// datagrams) as net.decode spans; returns ns per decode.
double decode_ns(const std::vector<std::byte>& frames, Tracer& tracer, int passes);

/// Times batches of FdService::handle_heartbeat on pre-decoded heartbeats
/// as service.handle_heartbeat spans, on a private FdService (metrics on)
/// holding `peers` peers, each subscribed once per tuple in `per_peer`,
/// windows full. Returns ns per call.
double handle_heartbeat_ns(std::size_t peers,
                           const std::vector<twfd::config::QosRequirements>& per_peer,
                           Tracer& tracer, int passes);

/// Sample lines (every line but `#` comments) of a Prometheus text body.
std::size_t count_series(const std::string& body);

/// Little-endian field offsets inside an encoded heartbeat (net/wire.hpp).
constexpr std::size_t kSeqAt = 14;
constexpr std::size_t kSendTimeAt = 22;
constexpr std::size_t kIntervalAt = 30;
/// Overwrites the little-endian i64 at `frame + offset` (re-stamps a
/// pre-encoded heartbeat without re-encoding it).
inline void patch_i64(std::byte* frame, std::size_t offset, std::int64_t v) {
  for (int b = 0; b < 8; ++b) {
    frame[offset + b] = static_cast<std::byte>(static_cast<std::uint64_t>(v) >> (8 * b));
  }
}

/// HTTP/1.0 GET of `path` on 127.0.0.1:`port`. Returns the status code
/// (0 on transport failure) and fills `body`.
int http_get(std::uint16_t port, const std::string& path, std::string& body);

// --- open-loop peer fleet ----------------------------------------------------

/// N monitored processes on loopback UDP, each with its own socket and so
/// its own source address (peer identity is ip:port). One generator
/// thread sends heartbeats on a fixed absolute cadence per peer (send #k
/// due at start + phase + k * interval, as service::HeartbeatSender does)
/// and honours every IntervalRequest the service sends back. A peer
/// "crashes" by skipping every send due inside one of its down windows;
/// sequence numbers keep counting through the gap.
class PeerFleet {
 public:
  struct Down {
    Tick from = 0;
    Tick to = 0;
  };

  PeerFleet(std::size_t peers, std::uint16_t service_port, std::uint64_t seed);
  ~PeerFleet();
  PeerFleet(const PeerFleet&) = delete;
  PeerFleet& operator=(const PeerFleet&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return peers_.size(); }
  [[nodiscard]] std::uint16_t port(std::size_t i) const { return peers_[i].port; }
  [[nodiscard]] std::uint64_t sender_id(std::size_t i) const { return i + 1; }

  /// Reads every pending IntervalRequest (call after subscribing). Returns
  /// the number of peers that now have a requested interval.
  std::size_t absorb_interval_requests();
  /// Down windows per peer, as offsets from the epoch; set before start().
  void set_down(std::vector<std::vector<Down>> down) { down_ = std::move(down); }
  /// Arms the down windows: offset 0 is `epoch` (no peer is down before).
  void set_epoch(Tick epoch) { epoch_.store(epoch, std::memory_order_relaxed); }

  /// Starts the generator thread; peer phases are seeded uniform in
  /// [0, interval). `expected_sends` pre-sizes the send log so the
  /// generator does not allocate while the service is measured.
  void start(std::size_t expected_sends);
  void stop();

  /// Lateness of each send (actual - due) inside [from, to), ms.
  [[nodiscard]] std::vector<double> lateness_ms(Tick from, Tick to) const;
  /// Heartbeats sent inside [from, to).
  [[nodiscard]] std::uint64_t sent_between(Tick from, Tick to) const;
  /// Copy of every peer's wire frame (for decode timing).
  [[nodiscard]] std::vector<std::byte> frames() const;
  [[nodiscard]] Tick interval(std::size_t i) const { return peers_[i].interval; }

 private:
  struct Peer {
    int fd = -1;
    std::uint16_t port = 0;
    Tick interval = 0;
    Tick next_due = 0;
    std::int64_t seq = 0;
  };
  void run();
  void poll_requests();

  std::vector<Peer> peers_;
  std::vector<std::vector<Down>> down_;
  std::vector<std::byte> frames_;  // one pre-encoded heartbeat per peer
  std::uint16_t service_port_ = 0;
  int epfd_ = -1;
  std::mt19937_64 rng_;
  std::atomic<Tick> epoch_{INT64_MAX};
  std::atomic<bool> stop_{false};
  std::thread thread_;
  // Generator-thread records, read after stop(): (due, actual) per send.
  std::vector<std::pair<Tick, Tick>> sends_;
};

}  // namespace fdbench
