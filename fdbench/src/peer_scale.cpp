// peer_scale: closed-loop direct drive of the heartbeat path at a peer
// table several times the last-level cache.
//
// One pinned feeder thread per shard owns a private EventLoop +
// Dispatcher + FdService (metrics on: QoS tracker and live heartbeat
// cells, as twfd_fdaasd wires them) and calls Dispatcher::ingest on
// pre-encoded heartbeats, re-stamping seq/send_time in place. Set-up
// subscribes every peer and fills every window to the largest size
// peer by peer (each peer's ring stays cache-resident while it fills);
// the measured phase then drives rounds over all peers in a seeded
// random order, so the slab is walked the way real arrivals walk it,
// not in allocation order. Sockets and verdicts are bypassed.
//
// Every set-up is measured for an equal slice of the window and the
// run reports the median over set-ups: the cost of a random walk over a
// fresh ~1 GB table depends on where its pages land: measured on one
// table, a whole run reads anywhere from 0.6 to 0.9 µs per heartbeat.
//
// Traced run: rounds cycle through three kinds — plain ingest (the
// untraced reference), ingest with one span per batch (tracing cost),
// and the split path: net::decode batches then FdService::
// handle_heartbeat batches on the pre-decoded messages.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <random>
#include <thread>

#include "net/event_loop.hpp"
#include "net/udp_socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/qos_tracker.hpp"
#include "service/dispatcher.hpp"
#include "service/fd_service.hpp"
#include "workloads.hpp"

namespace fdbench {
namespace {

using namespace twfd;

constexpr std::size_t kShards = 2;
constexpr std::size_t kPeersPerShard = 50'000;
constexpr int kSetups = 5;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kFrame = net::HeartbeatMsg::kWireSize;
const config::QosRequirements kTuple{2.0, 1e-2, 10.0};

enum RoundKind { kPlain = 0, kTracedIngest = 1, kSplit = 2 };

struct Feeder {
  std::vector<double> subscribe_us;
  std::vector<double> plain_ns;   ///< per-round ns/hb, plain rounds
  std::vector<double> traced_ns;  ///< per-round ns/hb, traced-ingest rounds
  std::vector<double> batch_ns;   ///< ns/hb of every plain-round batch
  std::uint64_t driven_measured = 0;
  std::uint64_t applied_before = 0, applied_after = 0;
  std::uint64_t rebuilds_subscribed = 0, rebuilds_setup = 0, rebuilds_total = 0;
  std::int64_t min_window = 0;
  net::EventLoop::Stats loop0, loop1;
  double fill_s = 0;
  std::uint64_t cpu0 = 0, cpu1 = 0;
  int tid = 0;
  Tick started = 0;  ///< first measured round began
};

/// What the feeders of one set-up share: the registry, with the QoS
/// tracker and live heartbeat cells twfd_fdaasd wires into it.
struct Shared {
  obs::Registry registry;
  obs::QosTracker tracker{registry};
  obs::ShardedCounter& hb_cells = registry.sharded_counter(
      "twfd_shard_heartbeats_total", "Heartbeats applied (bench drive).", kShards);
};

/// Everything one pinned feeder thread does for shard `t`: build its
/// stack, subscribe its peers and fill every window (the set-up), arrive
/// at `sync` (1), drive rounds from (2) until `stop`, then arrive at (3)
/// and (4). The `last` set-up's stack is left standing; earlier ones are
/// torn down.
void drive(std::size_t t, bool last, const Options& opt, Tracer& tracer, Shared& shared,
           Feeder& d, std::barrier<>& sync, const std::atomic<bool>& stop) {
  pin_to_cores(0, t, 1);
  d.tid = static_cast<int>(gettid());
  auto loop = std::make_unique<net::EventLoop>(net::UdpSocket::Options{});  // never read
  auto dispatcher = std::make_unique<service::Dispatcher>(loop->runtime());
  service::FdService::Params params;
  params.expected_peers = kPeersPerShard;
  params.qos_tracker = &shared.tracker;
  params.obs_heartbeats = &shared.hb_cells;
  params.obs_cell = t;
  const std::size_t max_window = *std::max_element(params.windows.begin(), params.windows.end());
  auto fd_owner = std::make_unique<service::FdService>(loop->runtime(), params);
  service::FdService& fd = *fd_owner;
  dispatcher->on_heartbeat([&fd](PeerId from, const net::HeartbeatMsg& m, Tick at) {
    fd.handle_heartbeat(from, m, at);
  });

  // Distinct source addresses inside 127.0.0.0/8; the subscribe-time
  // IntervalRequest has a loopback route and vanishes harmlessly.
  const std::size_t n = kPeersPerShard;
  std::vector<PeerId> ids(n);
  d.subscribe_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const net::SocketAddress addr{0x7f010000u + static_cast<std::uint32_t>(t * n + i), 4242};
    ids[i] = loop->add_peer(addr);
    const Tick s0 = now_ns();
    fd.subscribe(ids[i], i + 1, "app", kTuple, [](const service::FdService::StatusEvent&) {});
    const Tick s1 = now_ns();
    d.subscribe_us.push_back(static_cast<double>(s1 - s0) / 1e3);
    tracer.record("service.subscribe", s0, s1, t + 1);
  }
  const Tick interval = fd.shared_interval(ids[0]);
  d.rebuilds_subscribed = fd.detector_rebuilds();

  // Seeded per-peer phase in [0, interval/2): arrival order inside a
  // round follows the phases, a random permutation of slab order.
  std::mt19937_64 rng(opt.seed * 7919 + t);
  std::vector<Tick> phase(n);
  std::uniform_int_distribution<Tick> ph(0, interval / 2);
  for (auto& p : phase) p = ph(rng);
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return phase[a] < phase[b]; });

  std::vector<std::byte> frames(n * kFrame);
  for (std::size_t i = 0; i < n; ++i) {
    net::HeartbeatMsg hb;
    hb.sender_id = i + 1;
    hb.interval = interval;
    const auto bytes = net::encode(hb);
    std::memcpy(frames.data() + i * kFrame, bytes.data(), kFrame);
  }
  const Tick base = loop->now();
  const auto stamp = [&](std::size_t i, std::int64_t seq) -> Tick {
    std::byte* f = frames.data() + i * kFrame;
    const Tick send = base + seq * interval + phase[i];
    patch_i64(f, kSeqAt, seq);
    patch_i64(f, kSendTimeAt, send);
    return send + ticks_from_us(50);
  };
  const auto ingest = [&](std::size_t i, Tick arrival) {
    dispatcher->ingest(ids[i], std::span<const std::byte>(frames.data() + i * kFrame, kFrame),
                       arrival);
  };

  // Fill: every window to the largest size, peer by peer.
  const Tick f0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 1; s <= max_window; ++s) ingest(i, stamp(i, static_cast<std::int64_t>(s)));
  }
  d.fill_s = static_cast<double>(now_ns() - f0) / 1e9;
  d.rebuilds_setup = fd.detector_rebuilds() - d.rebuilds_subscribed;
  d.min_window = INT64_MAX;
  for (std::size_t i = 0; i < n; ++i) {
    d.min_window = std::min(d.min_window, fd.network_estimator(ids[i])->received());
  }

  std::vector<net::HeartbeatMsg> decoded(kBatch);
  d.plain_ns.reserve(1 << 14);
  d.traced_ns.reserve(1 << 14);
  d.batch_ns.reserve(1 << 18);  // recorded up to capacity: no allocation
  sync.arrive_and_wait();  // (1) windows full
  sync.arrive_and_wait();  // (2) measure
  d.started = now_ns();
  d.loop0 = loop->stats();
  d.applied_before = fd.heartbeats_processed();
  auto seq = static_cast<std::int64_t>(max_window);
  for (std::uint64_t round = 0; !stop.load(std::memory_order_relaxed); ++round) {
    ++seq;
    const int kind = opt.trace ? static_cast<int>(round % 3) : kPlain;
    const Tick r0 = now_ns();
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t e = std::min(n, b + kBatch);
      if (kind == kSplit) {
        for (std::size_t k = b; k < e; ++k) stamp(order[k], seq);
        const Tick d0 = now_ns();
        for (std::size_t k = b; k < e; ++k) {
          const std::size_t i = order[k];
          const auto msg =
              net::decode(std::span<const std::byte>(frames.data() + i * kFrame, kFrame));
          decoded[k - b] = std::get<net::HeartbeatMsg>(*msg);
        }
        const Tick d1 = now_ns();
        for (std::size_t k = b; k < e; ++k) {
          const std::size_t i = order[k];
          fd.handle_heartbeat(ids[i], decoded[k - b],
                              base + seq * interval + phase[i] + ticks_from_us(50));
        }
        const Tick d2 = now_ns();
        tracer.record("net.decode", d0, d1, t + 1, 0, e - b);
        tracer.record("service.handle_heartbeat", d1, d2, t + 1, 0, e - b);
      } else {
        const Tick b0 = now_ns();
        for (std::size_t k = b; k < e; ++k) {
          const std::size_t i = order[k];
          ingest(i, stamp(i, seq));
        }
        const Tick b1 = now_ns();
        if (kind == kTracedIngest) tracer.record("dispatcher.ingest", b0, b1, t + 1, 0, e - b);
        if (kind == kPlain && d.batch_ns.size() < d.batch_ns.capacity()) {
          d.batch_ns.push_back(static_cast<double>(b1 - b0) / static_cast<double>(e - b));
        }
      }
    }
    const double ns = static_cast<double>(now_ns() - r0) / static_cast<double>(n);
    if (kind == kPlain) d.plain_ns.push_back(ns);
    if (kind == kTracedIngest) d.traced_ns.push_back(ns);
    d.driven_measured += n;
  }
  d.loop1 = loop->stats();
  d.applied_after = fd.heartbeats_processed();
  d.rebuilds_total = fd.detector_rebuilds();
  sync.arrive_and_wait();  // (3) measured region closed
  sync.arrive_and_wait();  // (4) registry rendered
  if (!last) return;
  // The last stack is never torn down: untracking 50k QoS series and
  // unmapping ~0.5 GB per shard costs seconds that no metric measures,
  // and process exit reclaims all of it.
  static_cast<void>(fd_owner.release());
  static_cast<void>(dispatcher.release());
  static_cast<void>(loop.release());
}

}  // namespace

Result run_peer_scale(const Options& opt, Tracer& tracer) {
  Result res;
  std::barrier sync(static_cast<std::ptrdiff_t>(kShards) + 1);
  std::atomic<bool> stop{false};
  std::vector<std::vector<Feeder>> runs(kSetups, std::vector<Feeder>(kShards));
  std::vector<std::thread> threads;
  std::unique_ptr<Shared> shared;
  std::vector<double> setup_s;
  std::uint64_t rss0 = 0, rss1 = 0, allocs_delta = 0;
  double measured_s = 0;
  Tick start_late = 0;
  std::vector<double> render_ms;
  std::size_t body_bytes = 0, series = 0;
  const auto slice = std::chrono::duration<double>(opt.seconds / kSetups);
  for (int iter = 0; iter < kSetups; ++iter) {
    const bool last = iter == kSetups - 1;
    std::vector<Feeder>& drv = runs[iter];
    set_phase("setup");
    const Tick t0 = now_ns();
    if (iter == 0) rss0 = rss_kb();
    shared = std::make_unique<Shared>();
    stop = false;
    threads.clear();
    for (std::size_t t = 0; t < kShards; ++t) {
      threads.emplace_back(
          [&, t, last] { drive(t, last, opt, tracer, *shared, drv[t], sync, stop); });
    }
    sync.arrive_and_wait();  // (1)
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (iter == 0) rss1 = rss_kb();

    set_phase("measure");
    for (Feeder& d : drv) d.cpu0 = thread_cpu_ns(d.tid);
    const std::uint64_t allocs0 = allocs();
    const Tick m0 = now_ns();
    sync.arrive_and_wait();  // (2)
    std::this_thread::sleep_for(slice);
    stop = true;
    sync.arrive_and_wait();  // (3)
    allocs_delta += allocs() - allocs0;
    measured_s += static_cast<double>(now_ns() - m0) / 1e9;
    for (Feeder& d : drv) {
      d.cpu1 = thread_cpu_ns(d.tid);
      start_late = std::max(start_late, d.started - m0);
    }

    // Traced run: render the registry (100k QoS-tracked subscriptions)
    // directly, as a scrape would.
    set_phase("probes");
    if (opt.trace && last) {
      for (int k = 0; k < 2; ++k) {
        const Tick r0 = now_ns();
        const std::string body = obs::render_text(shared->registry);
        const Tick r1 = now_ns();
        tracer.record("obs.render_text", r0, r1);
        render_ms.push_back(static_cast<double>(r1 - r0) / 1e6);
        body_bytes = body.size();
        series = count_series(body);
      }
    }
    sync.arrive_and_wait();  // (4)
    set_phase("setup: teardown");
    for (auto& th : threads) th.join();
    if (!last) shared.reset();
  }
  static_cast<void>(shared.release());  // outlives the leaked stacks

  // --- results: per set-up, the slower feeder; then the median over set-ups ---
  const std::size_t peers = kShards * kPeersPerShard;
  const service::FdService::Params defaults;
  const std::size_t max_window =
      *std::max_element(defaults.windows.begin(), defaults.windows.end());
  std::vector<double> p50s, p95s, p99s, traced, cpus, fills;
  std::uint64_t applied = 0, driven_measured = 0, resched = 0, cascades = 0, cpu = 0, rounds = 0;
  std::vector<double> subscribe_us;
  for (const std::vector<Feeder>& drv : runs) {
    double slow_p50 = 0, slow_p95 = 0, slow_p99 = 0, slow_traced = 0, fill_s = 0;
    std::uint64_t run_applied = 0, run_cpu = 0;
    for (const Feeder& d : drv) {
      slow_p50 = std::max(slow_p50, median(d.plain_ns));
      slow_p95 = std::max(slow_p95, quantile(d.plain_ns, 0.95));
      slow_p99 = std::max(slow_p99, quantile(d.batch_ns, 0.99));
      slow_traced = std::max(slow_traced, median(d.traced_ns));
      fill_s = std::max(fill_s, d.fill_s);
      run_applied += d.applied_after - d.applied_before;
      run_cpu += d.cpu1 - d.cpu0;
      driven_measured += d.driven_measured;
      resched += d.loop1.timers.rescheduled - d.loop0.timers.rescheduled;
      cascades += d.loop1.timers.cascades - d.loop0.timers.cascades;
      subscribe_us.insert(subscribe_us.end(), d.subscribe_us.begin(), d.subscribe_us.end());

      res.check(d.min_window >= static_cast<std::int64_t>(max_window),
                "peer_scale: a window held fewer samples than the largest window");
      // One rebuild per peer is expected: its first heartbeat adopts the
      // advertised interval. Any later rebuild would have emptied a window.
      res.check(d.rebuilds_setup == kPeersPerShard &&
                    d.rebuilds_total == d.rebuilds_subscribed + d.rebuilds_setup,
                "peer_scale: windows were rebuilt after the first heartbeat");
      res.check(d.applied_after - d.applied_before == d.driven_measured,
                "peer_scale: heartbeats applied != heartbeats driven");
    }
    rounds += drv[0].plain_ns.size();
    applied += run_applied;
    cpu += run_cpu;
    p50s.push_back(slow_p50);
    p95s.push_back(slow_p95);
    p99s.push_back(slow_p99);
    traced.push_back(slow_traced);
    fills.push_back(fill_s);
    if (run_applied) cpus.push_back(static_cast<double>(run_cpu) / 1e3 / run_applied);
  }
  res.check(allocs_delta == 0, "peer_scale: heap allocations on the heartbeat path");
  res.attempted = driven_measured;
  res.failed = driven_measured - applied;

  const double setup = median(setup_s);
  const double rss_per_peer = static_cast<double>(rss1 - rss0) / static_cast<double>(peers);
  const double cpu_us_per_hb = median(cpus);
  const double slow_p50 = median(p50s), slow_p95 = median(p95s), slow_p99 = median(p99s);
  const double slow_traced = median(traced);

  res.headline["setup_s"] = setup;
  res.headline["op_p50_ms"] = slow_p50 / 1e6;
  res.headline["op_tail_ms"] = slow_p95 / 1e6;
  res.headline["service_cpu_us_per_hb"] = cpu_us_per_hb;
  res.headline["rss_kb_per_sub"] = rss_per_peer;

  res.named = {{"setup_s", setup, "s"},
               {"ingest_ns_per_hb", slow_p50, "ns"},
               {"ingest_round_p95_ns_per_hb", slow_p95, "ns"},
               {"ingest_batch_p99_ns_per_hb", slow_p99, "ns"},
               {"measured_rounds", static_cast<double>(rounds), "count"},
               {"rss_per_peer_kb", rss_per_peer, "KiB"},
               {"feeder_cpu_us_per_hb", cpu_us_per_hb, "us"},
               {"peers", static_cast<double>(peers), "count"},
               {"max_window", static_cast<double>(max_window), "count"},
               {"llc_multiple", static_cast<double>(rss1 - rss0) * 1024.0 /
                                    static_cast<double>(std::max<std::uint64_t>(llc_bytes(), 1)),
                "x"}};

  if (!opt.trace) return res;
  // Closed loop: the load is late only in starting; the slowest feeder's
  // delay from the release of a measured slice to its first round.
  auto& L = res.layer;
  L["bench.gen_late_p99_ms"] = static_cast<double>(start_late) / 1e6;
  L["net.decode_ns"] = tracer.ns_per_item("net.decode");
  L["net.timer_resched_per_hb"] = applied ? static_cast<double>(resched) / applied : 0;
  L["net.timer_cascades_per_s"] = static_cast<double>(cascades) / measured_s;
  L["service.handle_heartbeat_ns"] = tracer.ns_per_item("service.handle_heartbeat");
  L["service.subscribe_us"] = median(subscribe_us);
  L["service.warmup_s"] = median(fills);
  L["service.detector_rebuilds"] =
      static_cast<double>(runs.back()[0].rebuilds_total + runs.back()[1].rebuilds_total);
  L["service.hb_applied"] = static_cast<double>(applied);
  L["shard.busy_pct"] = static_cast<double>(cpu) / 1e9 / measured_s / kShards * 100;
  L["shard.hb_applied_ratio"] =
      driven_measured ? static_cast<double>(applied) / static_cast<double>(driven_measured) : 0;
  L["obs.render_ms"] = median(render_ms);
  L["obs.scrape_kb"] = static_cast<double>(body_bytes) / 1024.0;
  L["obs.series"] = static_cast<double>(series);
  L["proc.allocs_per_hb"] =
      driven_measured ? static_cast<double>(allocs_delta) / static_cast<double>(driven_measured) : 0;
  L["config.chen_configure_us"] = chen_configure_us({kTuple}, tracer, 2000);
  L["trace.overhead_pct"] = slow_p50 > 0 && slow_traced > 0 ? (slow_traced - slow_p50) / slow_p50 * 100 : 0;
  return res;
}

}  // namespace fdbench
