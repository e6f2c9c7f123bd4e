// The in-process FDaaS stack exactly as twfd_fdaasd composes it
// (ShardedMonitorService + FdaasServer + obs::Registry/QosTracker +
// ScrapeServer, metrics on), plus the outside-in counter snapshots the
// socket workloads diff over their measured window.
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "api/fdaas_server.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/qos_tracker.hpp"
#include "obs/scrape_server.hpp"
#include "probe.hpp"
#include "shard/sharded_monitor_service.hpp"

namespace fdbench {

/// One decoded EVENT frame as a client saw it.
struct Ev {
  std::uint64_t id = 0;
  bool suspect = false;
  Tick when = 0;     ///< detector fire time (server steady clock)
  Tick decoded = 0;  ///< client decode time (same host, same clock)
};

struct Stack {
  static constexpr std::size_t kShards = 2;

  std::unique_ptr<twfd::obs::Registry> registry;
  std::unique_ptr<twfd::obs::QosTracker> tracker;
  std::unique_ptr<twfd::shard::ShardedMonitorService> service;
  std::unique_ptr<twfd::api::FdaasServer> server;
  std::unique_ptr<twfd::obs::ShardExport> shard_export;
  std::unique_ptr<twfd::obs::ScrapeServer> scrape;
  // Service threads, attributed by diffing /proc/self/task around each
  // component's start().
  std::set<int> shard_tids;  ///< shard workers + their supervisor
  std::set<int> api_tids;
  std::set<int> scrape_tids;

  /// Builds and starts every component. Session limits are raised so a
  /// few connections can hold tens of thousands of subscriptions. Shard
  /// workers are pinned to the first cores and the API thread to the next
  /// one; the scrape thread and the calling thread (so the load
  /// generators it starts) share the remaining ones.
  void start();
  /// Stops in twfd_fdaasd's order: scrape, server, service.
  void stop();
  [[nodiscard]] twfd::net::SocketAddress api_address() const;
};

/// Waits until every client connection holds its subscriptions; throws a
/// client's error.
template <typename Conn, std::size_t N>
void wait_ready(std::unique_ptr<Conn> (&conns)[N]) {
  for (auto& c : conns) {
    while (!c->ready) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (!c->error.empty()) throw std::runtime_error("client: " + c->error);
  }
}

/// Stops every client connection before joining any: a closed session
/// releases its subscriptions on the API thread, one blocking unsubscribe
/// each, which would stall a sibling still waiting on a reply.
template <typename Conn, std::size_t N>
void join_all(std::unique_ptr<Conn> (&conns)[N]) {
  for (auto& c : conns) c->stop = true;
  for (auto& c : conns) c->join();
}

/// What the socket workloads' set-up leaves running for the measured window.
struct OpenLoop {
  std::unique_ptr<Stack> stack;
  std::unique_ptr<PeerFleet> fleet;
  double setup_s = 0;         ///< median over the set-ups
  double warmup_s = 0;        ///< last set-up: subscriptions placed -> first heartbeats applied
  double rss_per_sub_kb = 0;  ///< first set-up: VmRSS delta over the subscribe phase / subs
};

/// Sets the socket workloads up `setups` times and reports the median
/// set-up time; the last set-up stays up for the measured window. Each
/// one starts a Stack and a PeerFleet of `peers` (seeded seed + i), calls
/// `start_clients`, which must return once every connection holds its
/// `subscriptions` (wait_ready), lets every peer absorb its
/// IntervalRequest and start beating, and waits until the service has
/// applied a heartbeat per peer. The last fleet is armed with `down`.
/// Earlier set-ups are torn down server first, then `stop_clients`: a
/// session whose client is gone and that fails a write inside the
/// server's event delivery deadlocks the API thread (see RESULTS.md), so
/// clients must not close while verdicts can still be delivered.
OpenLoop set_up_open_loop(Result& res, const char* who, int setups, std::size_t peers,
                          std::size_t subscriptions, std::uint64_t seed, double seconds,
                          std::vector<std::vector<PeerFleet::Down>> down,
                          const std::function<void(Stack&, PeerFleet&)>& start_clients,
                          const std::function<void()>& stop_clients);

/// Counters read from outside at one instant.
struct Snap {
  Tick at = 0;
  twfd::shard::ShardedMonitorService::ShardStats shard;
  twfd::api::FdaasServer::Stats api;
  std::uint64_t cpu_shard = 0, cpu_api = 0, cpu_scrape = 0;
  std::uint64_t allocs = 0;
  std::vector<std::uint64_t> api_latency_buckets;
  std::uint64_t api_wakeups = 0;
};

Snap snapshot(Stack& s);

/// Fills the net/shard/api/proc layer metrics from two snapshots.
/// `sent` is the heartbeats the fleet sent inside the window, `suspects`
/// the Suspect transitions the clients decoded inside it.
void fill_window_layers(Result& res, const Snap& a, const Snap& b, std::uint64_t sent,
                        std::uint64_t suspects);

/// Service CPU (shards + API + scrape threads) per applied heartbeat, µs:
/// the median over the slices between consecutive snapshots, so a burst
/// of host load that lands in one slice moves it less than a window total.
double service_cpu_us_per_hb(const std::vector<Snap>& snaps);

/// Checks the EVENT stream of one connection: every id was acked to it
/// (`known`, reserved health id 0 aside) and Suspect/Trust strictly
/// alternate per subscription starting from Trust.
void check_stream(Result& res, const char* who, const std::vector<Ev>& events,
                  const std::set<std::uint64_t>& known);

/// Traced-run probes shared by the socket workloads: direct
/// ShardedMonitorService::subscribe/unsubscribe calls, /metrics over
/// HTTP and obs::render_text called directly.
void probe_layers(Result& res, Stack& s, Tracer& tracer, const twfd::net::SocketAddress& peer,
                  std::uint64_t sender_id, const twfd::config::QosRequirements& qos);

}  // namespace fdbench
