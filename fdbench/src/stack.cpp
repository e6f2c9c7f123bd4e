#include "stack.hpp"

#include <map>
#include <string>

namespace fdbench {

using namespace twfd;

namespace {

// Bounds of FdaasServer's twfd_api_event_latency_seconds; the registry
// hands back the live instance only for identical bounds.
const std::vector<double> kApiLatencyBounds = {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                                               0.05,   0.1,   0.25,   0.5,   1.0};
const char* const kWakeCauses[] = {"io", "timer", "cross", "spurious"};

}  // namespace

void Stack::start() {
  pin_to_cores(0, 0);  // a previous stack pinned the caller; shards pick from all cores
  registry = std::make_unique<obs::Registry>();
  tracker = std::make_unique<obs::QosTracker>(*registry);

  shard::ShardedMonitorService::Params sp;
  sp.shards = kShards;
  sp.port = 0;
  sp.registry = registry.get();
  sp.service.qos_tracker = tracker.get();
  sp.pin_cores = true;  // one worker per core, from the first core on
  service = std::make_unique<shard::ShardedMonitorService>(sp);
  auto before = thread_ids();
  service->start();
  shard_tids = new_threads(before, thread_ids());

  api::FdaasServer::Params ap;
  ap.port = 0;
  ap.registry = registry.get();
  ap.max_subscriptions_per_session = 1 << 20;
  server = std::make_unique<api::FdaasServer>(*service, ap);
  before = thread_ids();
  server->start();
  api_tids = new_threads(before, thread_ids());

  // twfd_fdaasd's collect hook: shard stats, QoS refresh at scrape time.
  shard_export = std::make_unique<obs::ShardExport>(*registry);
  registry->add_collect_hook([this] {
    shard_export->update(service->merged_stats(), service->shard_count());
    tracker->refresh(SteadyClock{}.now());
  });
  scrape = std::make_unique<obs::ScrapeServer>(*registry, obs::ScrapeServer::Params{});
  before = thread_ids();
  scrape->start();
  scrape_tids = new_threads(before, thread_ids());
  // The API thread gets a core of its own when the host has one to spare;
  // the scrape thread and the caller (so the load it starts) share the rest.
  const std::size_t spare = online_cpus() > kShards + 1 ? 1 : 0;
  for (const int tid : api_tids) pin_to_cores(tid, kShards, spare ? 1 : SIZE_MAX);
  for (const int tid : scrape_tids) pin_to_cores(tid, kShards + spare);
  pin_to_cores(0, kShards + spare);
}

void Stack::stop() {
  if (scrape) scrape->stop();
  if (server) server->stop();
  if (service) service->stop();
}

net::SocketAddress Stack::api_address() const { return net::SocketAddress::loopback(server->port()); }

OpenLoop set_up_open_loop(Result& res, const char* who, int setups, std::size_t peers,
                          std::size_t subscriptions, std::uint64_t seed, double seconds,
                          std::vector<std::vector<PeerFleet::Down>> down,
                          const std::function<void(Stack&, PeerFleet&)>& start_clients,
                          const std::function<void()>& stop_clients) {
  OpenLoop ol;
  std::vector<double> setup_s;
  for (int iter = 0; iter < setups; ++iter) {
    const bool last = iter == setups - 1;
    const Tick t0 = now_ns();
    set_phase("setup: start stack");
    ol.stack = std::make_unique<Stack>();
    ol.stack->start();
    set_phase("setup: subscribe");
    ol.fleet = std::make_unique<PeerFleet>(peers, ol.stack->service->port(), seed + iter);
    const std::uint64_t rss_before_subs = rss_kb();
    start_clients(*ol.stack, *ol.fleet);
    const Tick subscribed = now_ns();
    if (iter == 0) {
      ol.rss_per_sub_kb = static_cast<double>(rss_kb() - rss_before_subs) /
                          static_cast<double>(subscriptions);
    }
    set_phase("setup: first heartbeats");
    std::size_t honoured = 0;
    for (int tries = 0; tries < 2000 && honoured < peers; ++tries) {
      honoured = ol.fleet->absorb_interval_requests();
      if (honoured < peers) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    res.check(honoured == peers, std::string(who) + ": a peer never received its IntervalRequest");
    if (last) ol.fleet->set_down(std::move(down));
    const double rate = static_cast<double>(peers) / to_seconds(ol.fleet->interval(0));
    ol.fleet->start(static_cast<std::size_t>(rate * (seconds + 10)));
    const Tick deadline = now_ns() + ticks_from_sec(10);
    while (ol.stack->service->merged_stats().service_heartbeats < peers) {
      if (now_ns() > deadline) throw std::runtime_error("first heartbeats never applied");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const Tick ready = now_ns();
    setup_s.push_back(to_seconds(ready - t0));
    ol.warmup_s = to_seconds(ready - subscribed);
    if (!last) {
      set_phase("setup: teardown");
      ol.stack->stop();
      stop_clients();
      ol.fleet.reset();
      ol.stack.reset();
    }
  }
  ol.setup_s = median(setup_s);
  return ol;
}

Snap snapshot(Stack& s) {
  Snap n;
  n.shard = s.service->merged_stats();
  n.api = s.server->stats();
  n.cpu_shard = threads_cpu_ns(s.shard_tids);
  n.cpu_api = threads_cpu_ns(s.api_tids);
  n.cpu_scrape = threads_cpu_ns(s.scrape_tids);
  const auto& hist = s.registry->histogram("twfd_api_event_latency_seconds",
                                           "Shard transition to client send-queue latency.",
                                           kApiLatencyBounds);
  n.api_latency_buckets = hist.snapshot().buckets;
  const std::string loop = obs::make_labels({{"loop", "api"}});
  for (const char* cause : kWakeCauses) {
    n.api_wakeups += s.registry
                         ->counter("twfd_loop_wakeups_total", "poll() returns by wake cause.",
                                   loop + ",cause=\"" + cause + "\"")
                         .value();
  }
  n.allocs = allocs();
  n.at = now_ns();
  return n;
}

double service_cpu_us_per_hb(const std::vector<Snap>& snaps) {
  std::vector<double> slices;
  for (std::size_t i = 1; i < snaps.size(); ++i) {
    const Snap& a = snaps[i - 1];
    const Snap& b = snaps[i];
    const std::uint64_t hb = b.shard.service_heartbeats - a.shard.service_heartbeats;
    const std::uint64_t cpu = (b.cpu_shard - a.cpu_shard) + (b.cpu_api - a.cpu_api) +
                              (b.cpu_scrape - a.cpu_scrape);
    if (hb) slices.push_back(static_cast<double>(cpu) / 1e3 / static_cast<double>(hb));
  }
  return median(slices);
}

void fill_window_layers(Result& res, const Snap& a, const Snap& b, std::uint64_t sent,
                        std::uint64_t suspects) {
  const double secs = static_cast<double>(b.at - a.at) / 1e9;
  const auto d = [](std::uint64_t x, std::uint64_t y) { return static_cast<double>(y - x); };
  const auto ratio = [](double x, double y) { return y > 0 ? x / y : 0.0; };
  const auto& la = a.shard.loop;
  const auto& lb = b.shard.loop;
  const double hb = d(a.shard.service_heartbeats, b.shard.service_heartbeats);
  auto& L = res.layer;
  L["net.rx_per_batch"] = ratio(d(la.datagrams_received, lb.datagrams_received),
                                d(la.rx_batches, lb.rx_batches));
  L["net.wakeups_spurious_per_s"] = d(la.wakeups_spurious, lb.wakeups_spurious) / secs;
  L["net.recv_errors"] = d(la.recv_errors, lb.recv_errors);
  L["net.rx_truncated"] = d(la.rx_truncated, lb.rx_truncated);
  L["net.timer_resched_per_hb"] = ratio(d(la.timers.rescheduled, lb.timers.rescheduled), hb);
  L["net.timer_fires_per_suspect"] =
      ratio(d(la.timers.fired, lb.timers.fired), static_cast<double>(suspects));
  L["net.timer_cascades_per_s"] = d(la.timers.cascades, lb.timers.cascades) / secs;
  L["service.hb_applied"] = hb;
  L["shard.busy_pct"] =
      d(a.cpu_shard, b.cpu_shard) / 1e9 / secs / static_cast<double>(Stack::kShards) * 100;
  L["shard.hb_applied_ratio"] = ratio(hb, static_cast<double>(sent));
  L["shard.handoff_ratio"] = ratio(d(a.shard.handoff_out, b.shard.handoff_out),
                                   d(la.datagrams_received, lb.datagrams_received));
  L["shard.commands_per_s"] = d(a.shard.commands_run, b.shard.commands_run) / secs;
  L["shard.events_dropped"] = d(a.shard.events_dropped, b.shard.events_dropped);
  L["shard.post_retries"] = d(a.shard.post_retries, b.shard.post_retries);
  L["shard.post_stalls"] = d(a.shard.post_stalls, b.shard.post_stalls);
  L["api.busy_pct"] = d(a.cpu_api, b.cpu_api) / 1e9 / secs * 100;
  std::vector<std::uint64_t> buckets(b.api_latency_buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] = b.api_latency_buckets[i] - a.api_latency_buckets[i];
  }
  L["api.queue_p50_ms"] = histogram_quantile(kApiLatencyBounds, buckets, 0.5) * 1e3;
  L["api.queue_p99_ms"] = histogram_quantile(kApiLatencyBounds, buckets, 0.99) * 1e3;
  L["api.wakeups_per_s"] = d(a.api_wakeups, b.api_wakeups) / secs;
  L["api.bytes_per_event"] =
      ratio(d(a.api.bytes_sent, b.api.bytes_sent), d(a.api.events_pushed, b.api.events_pushed));
  L["api.slow_evictions"] = d(a.api.slow_evictions, b.api.slow_evictions);
  L["obs.busy_pct"] = d(a.cpu_scrape, b.cpu_scrape) / 1e9 / secs * 100;
  L["proc.allocs_per_hb"] = ratio(d(a.allocs, b.allocs), hb);
}

void check_stream(Result& res, const char* who, const std::vector<Ev>& events,
                  const std::set<std::uint64_t>& known) {
  std::map<std::uint64_t, bool> suspecting;  // absent = Trust (initial verdict)
  std::uint64_t unknown = 0, repeated = 0;
  for (const Ev& e : events) {
    if (e.id == shard::ShardedMonitorService::kHealthSubscription) continue;
    if (!known.contains(e.id)) {
      ++unknown;
      continue;
    }
    bool& s = suspecting[e.id];
    if (s == e.suspect) ++repeated;
    s = e.suspect;
  }
  res.check(unknown == 0, std::string(who) + ": " + std::to_string(unknown) +
                              " EVENTs for unknown subscription ids");
  res.check(repeated == 0, std::string(who) + ": " + std::to_string(repeated) +
                               " EVENTs did not alternate Suspect/Trust");
}

void probe_layers(Result& res, Stack& s, Tracer& tracer, const net::SocketAddress& peer,
                  std::uint64_t sender_id, const config::QosRequirements& qos) {
  std::vector<double> sub_us;
  for (int k = 0; k < 200; ++k) {
    const Tick t0 = now_ns();
    const auto id = s.service->subscribe(peer, sender_id, "probe", qos);
    const Tick t1 = now_ns();
    s.service->unsubscribe(id);
    const Tick t2 = now_ns();
    tracer.record("service.subscribe", t0, t1);
    tracer.record("service.unsubscribe", t1, t2);
    sub_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  res.layer["service.subscribe_us"] = median(sub_us);

  std::vector<double> render_ms;
  std::string body;
  for (int k = 0; k < 3; ++k) {
    const Tick t0 = now_ns();
    const int status = http_get(s.scrape->port(), "/metrics", body);
    const Tick t1 = now_ns();
    tracer.record("obs.scrape", t0, t1);
    res.check(status == 200, "probe scrape did not return HTTP 200");
    const Tick r0 = now_ns();
    const std::string text = obs::render_text(*s.registry);
    const Tick r1 = now_ns();
    tracer.record("obs.render_text", r0, r1);
    render_ms.push_back(static_cast<double>(r1 - r0) / 1e6);
  }
  res.layer["obs.render_ms"] = median(render_ms);
  res.layer["obs.scrape_kb"] = static_cast<double>(body.size()) / 1024.0;
  res.layer["obs.series"] = static_cast<double>(count_series(body));
}

}  // namespace fdbench
