// sub_churn: open-loop control-plane writes beside verdict reads.
//
// Tens of thousands of subscriptions (several apps per peer, all with
// the same tuple so churn never renegotiates the heartbeat interval) are
// spread over slowly beating live peers and held by two client
// connections. Each connection alternates unsubscribe and resubscribe at
// a fixed rate on a seeded order; a low crash rate keeps verdicts
// flowing; an operator scrapes /metrics over HTTP once a second.
#include <algorithm>
#include <map>
#include <random>
#include <thread>
#include <utility>

#include "stack.hpp"
#include "workloads.hpp"

namespace fdbench {
namespace {

using namespace twfd;

constexpr std::size_t kPeers = 3000;
constexpr std::size_t kAppsPerConn = 2;
constexpr std::size_t kConns = 2;
constexpr int kSetups = 3;
constexpr double kChurnOpsPerSecond = 100;  // per connection, unsub + sub alternating
constexpr double kCrashesPerSecond = 8;
constexpr double kDownMin = 2.5, kDownMax = 3.0;  // seconds
constexpr double kGenLateLimitMs = 20;
const config::QosRequirements kTuple{2.0, 1.0 / 3600, 5.0};

struct Conn {
  std::size_t index = 0;
  std::vector<std::uint64_t> held;  ///< id per slot (peer * kAppsPerConn + app)
  std::map<std::uint64_t, std::size_t> peer_of;
  std::vector<std::uint64_t> acked;  ///< every id a Subscribe was acked with
  std::vector<Ev> events;
  std::vector<double> sub_ms, unsub_ms, late_ms;  ///< ops due inside the window
  std::vector<double> sub_ms_traced;
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  std::atomic<Tick> epoch{INT64_MAX};  ///< churn starts here
  Tick window_end = 0;
  /// Traced run: every other unsubscribe/resubscribe pair is recorded as
  /// spans; the pairs between are the untraced reference.
  bool trace = false;
  std::string error;
  std::thread thread;

  void run(net::SocketAddress server, const PeerFleet& fleet, std::uint64_t seed,
           Tracer& tracer) {
    held.assign(kPeers * kAppsPerConn, 0);
    events.reserve(1 << 16);
    acked.reserve(kPeers * kAppsPerConn * 2);
    thread = std::thread([this, server, &fleet, seed, &tracer] {
      try {
        api::Client client(server);
        client.set_event_handler([this](const api::EventMsg& m) {
          events.push_back(
              {m.subscription_id, m.output == detect::Output::Suspect, m.when, now_ns()});
        });
        const auto subscribe = [&](std::size_t slot) {
          const std::size_t peer = slot / kAppsPerConn;
          const std::string app = "app" + std::to_string(index * kAppsPerConn + slot % kAppsPerConn);
          const std::uint64_t id = client.subscribe(
              net::SocketAddress::loopback(fleet.port(peer)), fleet.sender_id(peer), app, kTuple);
          held[slot] = id;
          peer_of[id] = peer;
          acked.push_back(id);
        };
        for (std::size_t slot = 0; slot < held.size(); ++slot) subscribe(slot);
        ready = true;

        // Churn: op k is due at epoch + k / rate; even ops unsubscribe a
        // seeded random held slot, odd ops resubscribe it. (Seeded random
        // due times were tried; runs with them turned slow far more often,
        // see RESULTS.md.)
        while (epoch.load() == INT64_MAX && !stop) {
          if (!client.pump_for(ticks_from_ms(5))) return;  // server stopped
        }
        std::mt19937_64 rng(seed * 31 + index);
        std::uniform_int_distribution<std::size_t> pick(0, held.size() - 1);
        const Tick e0 = epoch.load();
        const auto period = static_cast<Tick>(1e9 / kChurnOpsPerSecond);
        std::size_t vacant = 0;
        for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
          // Connections interleave: conn i runs i/kConns of a period late.
          const Tick due = e0 + (static_cast<Tick>(k) * kConns + index) * period /
                                    static_cast<Tick>(kConns);
          if (due >= window_end) {  // window closed: only keep reading
            client.pump_for(ticks_from_ms(20));
            continue;
          }
          // pump_for() polls in whole milliseconds (and pings once per
          // call): read events until the last millisecond before the op is
          // due, then sleep precisely so it starts on time.
          for (Tick now = now_ns(); due - now > ticks_from_ms(1); now = now_ns()) {
            client.pump_for(std::min<Tick>(due - now - ticks_from_ms(1), ticks_from_ms(20)));
            if (stop.load(std::memory_order_relaxed)) return;
          }
          sleep_until_ns(due);
          const Tick start = now_ns();
          const bool traced = trace && (k / 2) % 2 == 1;
          late_ms.push_back(static_cast<double>(start - due) / 1e6);
          if (k % 2 == 0) {
            vacant = pick(rng);
            client.unsubscribe(held[vacant]);
            const Tick end = now_ns();
            if (traced) tracer.record("api.unsubscribe", start, end);
            unsub_ms.push_back(static_cast<double>(end - due) / 1e6);
          } else {
            subscribe(vacant);
            const Tick end = now_ns();
            if (traced) tracer.record("api.subscribe", start, end);
            (traced ? sub_ms_traced : sub_ms)
                .push_back(static_cast<double>(end - due) / 1e6);
          }
        }
      } catch (const std::exception& e) {
        error = e.what();
        ready = true;
      }
    });
  }
  void join() {
    stop = true;
    if (thread.joinable()) thread.join();
  }
};

}  // namespace

Result run_sub_churn(const Options& opt, Tracer& tracer) {
  Result res;
  // Seeded crash schedule, finished (revived) before the window closes.
  std::vector<std::vector<PeerFleet::Down>> down(kPeers);
  std::vector<std::pair<std::size_t, Tick>> crashes;  // (peer, offset)
  {
    std::mt19937_64 rng(opt.seed);
    const double span = std::max(opt.seconds - kDownMax - 0.5, opt.seconds / 2);
    std::uniform_real_distribution<double> at(0.0, span);
    std::uniform_real_distribution<double> len(kDownMin, kDownMax);
    std::uniform_int_distribution<std::size_t> pick(0, kPeers - 1);
    const auto n = static_cast<std::size_t>(kCrashesPerSecond * span);
    for (std::size_t c = 0; c < n; ++c) {
      std::size_t p = pick(rng);
      while (!down[p].empty()) p = pick(rng);  // one crash per peer
      const double t = at(rng);
      down[p].push_back({ticks_from_seconds(t), ticks_from_seconds(t + len(rng))});
      crashes.push_back({p, ticks_from_seconds(t)});
    }
  }

  std::unique_ptr<Conn> conns[kConns];
  const std::size_t subs = kPeers * kAppsPerConn * kConns;
  OpenLoop ol = set_up_open_loop(
      res, "sub_churn", kSetups, kPeers, subs, opt.seed, opt.seconds, down,
      [&](Stack& stack, PeerFleet& peers) {
        for (std::size_t k = 0; k < kConns; ++k) {
          conns[k] = std::make_unique<Conn>();
          conns[k]->index = k;
          conns[k]->trace = opt.trace;
          conns[k]->run(stack.api_address(), peers, opt.seed, tracer);
        }
        wait_ready(conns);
      },
      [&] { join_all(conns); });
  std::unique_ptr<Stack>& st = ol.stack;
  std::unique_ptr<PeerFleet>& fleet = ol.fleet;

  // --- measured window [T0, T1) ---
  const Tick T0 = now_ns() + ticks_from_ms(20);
  const Tick T1 = T0 + ticks_from_seconds(opt.seconds);
  fleet->set_epoch(T0);
  for (auto& c : conns) {
    c->window_end = T1;
    c->epoch = T0;
  }
  set_phase("measure");
  sleep_until_ns(T0);
  const Snap a = snapshot(*st);
  std::vector<double> scrape_ms, scrape_late_ms;
  std::uint64_t scrapes_ok = 0, scrapes = 0;
  std::string body;
  for (Tick due = T0; due < T1; due += ticks_from_sec(1)) {
    sleep_until_ns(due);
    const Tick s0 = now_ns();
    const int status = http_get(st->scrape->port(), "/metrics", body);
    const Tick s1 = now_ns();
    tracer.record("obs.scrape", s0, s1);
    ++scrapes;
    scrapes_ok += (status == 200 && body.find("\ntwfd_") != std::string::npos) ? 1 : 0;
    scrape_ms.push_back(static_cast<double>(s1 - due) / 1e6);
    scrape_late_ms.push_back(static_cast<double>(s0 - due) / 1e6);
  }
  sleep_until_ns(T1);
  set_phase("measure: snapshot b");
  const Snap b = snapshot(*st);
  set_phase("tail");
  sleep_until_ns(T1 + ticks_from_ms(500));
  set_phase("probes");
  if (opt.trace) {
    probe_layers(res, *st, tracer, net::SocketAddress::loopback(fleet->port(0)),
                 fleet->sender_id(0), kTuple);
  }
  set_phase("join clients");
  join_all(conns);
  set_phase("analysis");
  for (auto& c : conns) {
    if (!c->error.empty()) res.check(false, "sub_churn client: " + c->error);
  }
  fleet->stop();

  // --- checks and analysis ---
  std::set<std::uint64_t> all_ids;
  std::uint64_t reused = 0, churn_subs = 0;
  std::vector<double> sub_ms, sub_ms_traced, unsub_ms, late_ms, delivery_ms, fire_ms;
  std::map<std::size_t, Tick> crash_at;
  for (const auto& [p, off] : crashes) crash_at[p] = T0 + off;
  for (auto& c : conns) {
    std::set<std::uint64_t> known(c->acked.begin(), c->acked.end());
    check_stream(res, "sub_churn", c->events, known);
    for (const std::uint64_t id : c->acked) reused += all_ids.insert(id).second ? 0 : 1;
    churn_subs += c->sub_ms.size() + c->sub_ms_traced.size();
    sub_ms.insert(sub_ms.end(), c->sub_ms.begin(), c->sub_ms.end());
    sub_ms_traced.insert(sub_ms_traced.end(), c->sub_ms_traced.begin(), c->sub_ms_traced.end());
    unsub_ms.insert(unsub_ms.end(), c->unsub_ms.begin(), c->unsub_ms.end());
    late_ms.insert(late_ms.end(), c->late_ms.begin(), c->late_ms.end());
    // Detector fire time: the first Suspect after its peer's crash, for
    // subscriptions held since set-up (a resubscription on a peer that is
    // already down starts its own detection later).
    const std::set<std::uint64_t> from_setup(c->acked.begin(), c->acked.begin() + c->held.size());
    std::set<std::uint64_t> fired;
    for (const Ev& e : c->events) {
      if (e.decoded < T0) continue;
      delivery_ms.push_back(static_cast<double>(e.decoded - e.when) / 1e6);
      if (!e.suspect) continue;
      const auto it = crash_at.find(c->peer_of[e.id]);
      if (it != crash_at.end() && e.when >= it->second && from_setup.contains(e.id) &&
          fired.insert(e.id).second) {
        fire_ms.push_back(static_cast<double>(e.when - it->second) / 1e6);
      }
    }
  }
  res.check(reused == 0, "sub_churn: " + std::to_string(reused) +
                             " Subscribe acks reused an earlier id");
  res.check(scrapes_ok == scrapes, "sub_churn: " + std::to_string(scrapes - scrapes_ok) +
                                       " scrapes failed (HTTP status or no twfd_ families)");
  std::vector<double> all_sub_ms = sub_ms;
  all_sub_ms.insert(all_sub_ms.end(), sub_ms_traced.begin(), sub_ms_traced.end());

  // Only the heartbeat generator runs independently of the service; a
  // churn op or scrape that starts late waited for the previous reply,
  // which its latency (timed from the due time) already counts.
  const double late_p99 = quantile(fleet->lateness_ms(T0, T1), 0.99);
  res.valid = late_p99 <= kGenLateLimitMs;
  res.check(res.valid, "sub_churn: generator fell behind (lateness p99 " +
                           std::to_string(late_p99) + " ms)");

  res.attempted = churn_subs + unsub_ms.size() + scrapes;
  res.failed = scrapes - scrapes_ok;
  const double cpu = service_cpu_us_per_hb({a, b});
    res.headline["setup_s"] = ol.setup_s;
  res.headline["op_p50_ms"] = quantile(all_sub_ms, 0.5);
  res.headline["op_tail_ms"] = quantile(all_sub_ms, 0.99);
  res.headline["service_cpu_us_per_hb"] = cpu;
  res.headline["rss_kb_per_sub"] = ol.rss_per_sub_kb;
  res.named = {
      {"setup_s", ol.setup_s, "s"},
      {"subscribe_p50_ms", quantile(all_sub_ms, 0.5), "ms"},
      {"subscribe_p99_ms", quantile(all_sub_ms, 0.99), "ms"},
      {"subscribe_samples", static_cast<double>(all_sub_ms.size()), "count"},
      {"unsubscribe_p50_ms", quantile(unsub_ms, 0.5), "ms"},
      {"scrape_p50_ms", quantile(scrape_ms, 0.5), "ms"},
      {"scrape_samples", static_cast<double>(scrape_ms.size()), "count"},
      {"delivery_p50_ms", quantile(delivery_ms, 0.5), "ms"},
      {"delivery_p99_ms", quantile(delivery_ms, 0.99), "ms"},
      {"delivery_samples", static_cast<double>(delivery_ms.size()), "count"},
      {"detect_fire_p50_ms", quantile(fire_ms, 0.5), "ms"},
      {"detect_fire_p99_ms", quantile(fire_ms, 0.99), "ms"},
      {"rss_per_sub_kb", ol.rss_per_sub_kb, "KiB"},
      {"subscriptions", static_cast<double>(subs), "count"},
      {"service_cpu_us_per_hb", cpu, "us"},
      {"gen_late_p99_ms", late_p99, "ms"},
      {"churn_start_late_p99_ms", quantile(late_ms, 0.99), "ms"},
      {"scrape_start_late_p99_ms", quantile(scrape_late_ms, 0.99), "ms"},
  };

  if (opt.trace) {
    std::uint64_t suspects = 0;
    for (auto& c : conns) {
      for (const Ev& e : c->events) suspects += (e.suspect && e.decoded >= T0 && e.decoded < T1) ? 1 : 0;
    }
    fill_window_layers(res, a, b, fleet->sent_between(T0, T1), suspects);
    auto& L = res.layer;
    L["service.warmup_s"] = ol.warmup_s;
    L["config.chen_configure_us"] = chen_configure_us({kTuple}, tracer, 2000);
    L["net.decode_ns"] = decode_ns(fleet->frames(), tracer, 30);
    const std::vector<config::QosRequirements> per_peer(kAppsPerConn * kConns, kTuple);
    L["service.handle_heartbeat_ns"] = handle_heartbeat_ns(kPeers, per_peer, tracer, 20);
    L["bench.gen_late_p99_ms"] = late_p99;
    const double u = quantile(sub_ms, 0.5), t = quantile(sub_ms_traced, 0.5);
    L["trace.overhead_pct"] = u > 0 && t > 0 ? (t - u) / u * 100 : 0;
  }

  // The measured stack is left running: tearing it down releases every
  // subscription one blocking unsubscribe at a time, seconds that no
  // metric reads. main() exits the process without unwinding it.
  fleet.reset();
  static_cast<void>(st.release());
  return res;
}

}  // namespace fdbench
