// crash_fleet: open loop over loopback UDP and TCP.
//
// A few thousand peers, each its own UDP socket, beat at the interval
// the service requests. Every peer has two subscriptions from two apps,
// each on its own TCP connection: `strict` (T_D^U = 0.5 s) and `relaxed`
// (T_D^U = 2 s), sharing one heartbeat stream (the paper's Section V
// sharing). On a seeded schedule peers crash at a uniform random phase
// and revive 1.0-1.5 s later. Measured: crash -> the strict client
// decodes the Suspect EVENT, against T_D^U.
#include <algorithm>
#include <map>
#include <random>
#include <thread>
#include <unordered_set>

#include "stack.hpp"
#include "workloads.hpp"

namespace fdbench {
namespace {

using namespace twfd;

constexpr std::size_t kPeers = 3000;
constexpr int kSetups = 5;
constexpr double kCrashesPerSecond = 120;
constexpr double kDownMin = 1.0, kDownMax = 1.5;  // seconds
constexpr double kRestAfterRevive = 1.0;          // before a peer may crash again
constexpr double kGenLateLimitMs = 20;
const config::QosRequirements kStrict{0.5, 1.0 / 3600, 1.0};
const config::QosRequirements kRelaxed{2.0, 1.0 / 3600, 5.0};

struct Crash {
  std::size_t peer = 0;
  Tick from = 0;  ///< offset from the epoch
  Tick to = 0;
};

/// The seeded crash schedule: uniform crash instants over the measured
/// window, uniform downtime, a peer rests after reviving.
std::vector<Crash> plan_crashes(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed);
  const auto n = static_cast<std::size_t>(kCrashesPerSecond * seconds);
  std::uniform_real_distribution<double> at(0.0, seconds);
  std::uniform_real_distribution<double> down(kDownMin, kDownMax);
  std::uniform_int_distribution<std::size_t> pick(0, kPeers - 1);
  std::vector<double> instants(n);
  for (auto& t : instants) t = at(rng);
  std::sort(instants.begin(), instants.end());
  std::vector<double> free_at(kPeers, 0.0);
  std::vector<Crash> out;
  for (const double t : instants) {
    std::size_t p = pick(rng);
    while (free_at[p] > t) p = pick(rng);
    const double d = down(rng);
    free_at[p] = t + d + kRestAfterRevive;
    out.push_back({p, ticks_from_seconds(t), ticks_from_seconds(t + d)});
  }
  return out;
}

struct Conn {
  const char* app = "";
  config::QosRequirements qos;
  std::vector<std::uint64_t> ids;  ///< per peer
  std::vector<Ev> events;
  std::atomic<bool> ready{false};
  std::atomic<bool> stop{false};
  /// Traced run: EVENTs of odd-numbered peers are recorded live as
  /// spans; even-numbered peers are the untraced reference.
  bool trace = false;
  std::unordered_set<std::uint64_t> traced_ids;
  std::string error;
  std::thread thread;

  void run(net::SocketAddress server, const PeerFleet& fleet, Tracer& tracer) {
    ids.assign(fleet.size(), 0);
    events.reserve(1 << 16);
    thread = std::thread([this, server, &fleet, &tracer] {
      try {
        api::Client client(server);
        client.set_event_handler([this, &tracer](const api::EventMsg& m) {
          const Tick t = now_ns();
          events.push_back({m.subscription_id, m.output == detect::Output::Suspect, m.when, t});
          if (traced_ids.contains(m.subscription_id)) {
            tracer.record("api.event", m.when, t, m.subscription_id);
          }
        });
        for (std::size_t i = 0; i < fleet.size(); ++i) {
          const Tick s0 = now_ns();
          ids[i] = client.subscribe(net::SocketAddress::loopback(fleet.port(i)),
                                    fleet.sender_id(i), app, qos);
          tracer.record("api.subscribe", s0, now_ns());
          if (trace && i % 2 == 1) traced_ids.insert(ids[i]);
        }
        ready = true;
        while (!stop.load(std::memory_order_relaxed) && client.pump_for(ticks_from_ms(20))) {
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

Result run_crash_fleet(const Options& opt, Tracer& tracer) {
  Result res;
  const std::vector<Crash> crashes = plan_crashes(opt.seed, opt.seconds);
  std::vector<std::vector<PeerFleet::Down>> down(kPeers);
  for (const Crash& c : crashes) down[c.peer].push_back({c.from, c.to});

  std::unique_ptr<Conn> conns[2];
  OpenLoop ol = set_up_open_loop(
      res, "crash_fleet", kSetups, kPeers, 2 * kPeers, opt.seed, opt.seconds, down,
      [&](Stack& stack, PeerFleet& peers) {
        const config::QosRequirements* tuples[2] = {&kStrict, &kRelaxed};
        const char* apps[2] = {"strict", "relaxed"};
        for (int k = 0; k < 2; ++k) {
          conns[k] = std::make_unique<Conn>();
          conns[k]->app = apps[k];
          conns[k]->qos = *tuples[k];
          conns[k]->trace = opt.trace;
          conns[k]->run(stack.api_address(), peers, tracer);
        }
        wait_ready(conns);
      },
      [&] { join_all(conns); });
  std::unique_ptr<Stack>& st = ol.stack;
  std::unique_ptr<PeerFleet>& fleet = ol.fleet;
  // Read now: once the strict client disconnects, the service asks its
  // peers for the relaxed interval.
  const double interval_ms = to_seconds(fleet->interval(0)) * 1e3;

  // --- measured window [T0, T1), then a tail for late verdicts ---
  const Tick T0 = now_ns() + ticks_from_ms(20);
  const Tick T1 = T0 + ticks_from_seconds(opt.seconds);
  fleet->set_epoch(T0);
  set_phase("measure");
  sleep_until_ns(T0);
  // A snapshot per second of the window: service CPU per heartbeat is
  // the median over these one-second slices.
  std::vector<Snap> snaps{snapshot(*st)};
  for (Tick t = T0 + ticks_from_sec(1); t < T1; t += ticks_from_sec(1)) {
    sleep_until_ns(t);
    snaps.push_back(snapshot(*st));
  }
  sleep_until_ns(T1);
  set_phase("measure: snapshot b");
  snaps.push_back(snapshot(*st));
  const Snap& a = snaps.front();
  const Snap& b = snaps.back();
  set_phase("tail");
  sleep_until_ns(T1 + ticks_from_seconds(kDownMax + 0.8));
  set_phase("probes");
  if (opt.trace) {
    probe_layers(res, *st, tracer, net::SocketAddress::loopback(fleet->port(0)),
                 fleet->sender_id(0), kRelaxed);
  }
  set_phase("join clients");
  join_all(conns);
  set_phase("analysis");
  for (auto& c : conns) {
    if (!c->error.empty()) res.check(false, std::string("crash_fleet client: ") + c->error);
  }
  fleet->stop();
  // A Suspect never decoded counts as decoded when observation ended, so
  // it misses every limit and raises the percentiles.
  const Tick observed_until = now_ns();

  // --- analysis ---
  std::map<std::uint64_t, std::size_t> peer_of;  // subscription -> peer
  std::set<std::uint64_t> known[2];
  for (int k = 0; k < 2; ++k) {
    for (std::size_t p = 0; p < kPeers; ++p) {
      peer_of[conns[k]->ids[p]] = p;
      known[k].insert(conns[k]->ids[p]);
    }
  }
  check_stream(res, "crash_fleet strict", conns[0]->events, known[0]);
  check_stream(res, "crash_fleet relaxed", conns[1]->events, known[1]);

  std::map<std::uint64_t, std::vector<const Ev*>> strict_by_sub;
  for (const Ev& e : conns[0]->events) strict_by_sub[e.id].push_back(&e);

  const double td_ms = kStrict.td_upper_s * 1e3;
  std::vector<double> detect_ms, fire_ms, detect_untraced, detect_traced, delivery_ms;
  // `lost`: no Suspect decoded at all, the workload's failed operations.
  // `tardy`: decoded after crash + T_D^U, a QoS miss reported in
  // `td_miss_ratio`; how many varies from run to run with timing.
  std::uint64_t lost = 0, tardy = 0, no_trust = 0, decoded = 0;
  for (std::size_t c = 0; c < crashes.size(); ++c) {
    const Crash& cr = crashes[c];
    const Tick from = T0 + cr.from, to = T0 + cr.to;
    const Ev* suspect = nullptr;
    bool trusted = false;
    for (const Ev* e : strict_by_sub[conns[0]->ids[cr.peer]]) {
      if (suspect == nullptr && e->suspect && e->when >= from && e->when < to) suspect = e;
      if (suspect != nullptr && !e->suspect && e->when >= to) trusted = true;
    }
    if (suspect == nullptr) {
      ++lost;
      const double never = static_cast<double>(observed_until - from) / 1e6;
      detect_ms.push_back(never);
      delivery_ms.push_back(never);
      continue;
    }
    ++decoded;
    no_trust += trusted ? 0 : 1;
    const double d = static_cast<double>(suspect->decoded - from) / 1e6;
    detect_ms.push_back(d);
    fire_ms.push_back(static_cast<double>(suspect->when - from) / 1e6);
    (cr.peer % 2 == 1 ? detect_traced : detect_untraced).push_back(d);
    if (d > td_ms) ++tardy;
    const std::uint64_t root = tracer.record("detect.fire", from, suspect->when, c + 1);
    tracer.record("verdict.delivery", suspect->when, suspect->decoded, c + 1, root);
  }
  res.check(no_trust == 0, "crash_fleet: " + std::to_string(no_trust) +
                               " revived peers yielded no Trust");

  // Mistakes: Suspects (either app) outside every down window of the peer.
  std::uint64_t mistakes = 0, suspects_in_window = 0;
  for (int k = 0; k < 2; ++k) {
    for (const Ev& e : conns[k]->events) {
      if (e.decoded < T0) continue;
      delivery_ms.push_back(static_cast<double>(e.decoded - e.when) / 1e6);
      if (!e.suspect || e.decoded >= T1) continue;
      ++suspects_in_window;
      bool crashed = false;
      for (const PeerFleet::Down& d : down[peer_of[e.id]]) {
        crashed |= e.when >= T0 + d.from && e.when < T0 + d.to + ticks_from_ms(500);
      }
      mistakes += crashed ? 0 : 1;
    }
  }

  const std::vector<double> late = fleet->lateness_ms(T0, T1);
  const double late_p99 = quantile(late, 0.99);
  res.valid = late_p99 <= kGenLateLimitMs;
  res.check(res.valid, "crash_fleet: generator fell behind (lateness p99 " +
                           std::to_string(late_p99) + " ms)");

  res.attempted = crashes.size();
  res.failed = lost;
  const double sub_hours = 2.0 * kPeers * opt.seconds / 3600.0;
  const double cpu = service_cpu_us_per_hb(snaps);
  const double delivery_p50 = quantile(delivery_ms, 0.5), delivery_p99 = quantile(delivery_ms, 0.99);

  // The op slots hold the verdict path, the part the service controls
  // after the detector fires; detection as a whole is ~97% detector fire
  // time, set by T_D^U; its misses are reported in `td_miss_ratio`.
  res.headline["setup_s"] = ol.setup_s;
  res.headline["op_p50_ms"] = delivery_p50;
  res.headline["op_tail_ms"] = delivery_p99;
  res.headline["service_cpu_us_per_hb"] = cpu;
  res.headline["rss_kb_per_sub"] = ol.rss_per_sub_kb;
  res.named = {
      {"setup_s", ol.setup_s, "s"},
      {"detect_p50_ms", quantile(detect_ms, 0.5), "ms"},
      {"detect_p99_ms", quantile(detect_ms, 0.99), "ms"},
      {"detect_max_ms", quantile(detect_ms, 1.0), "ms"},
      {"detect_samples", static_cast<double>(decoded), "count"},
      {"detect_fire_p50_ms", quantile(fire_ms, 0.5), "ms"},
      {"detect_fire_p99_ms", quantile(fire_ms, 0.99), "ms"},
      {"td_upper_ms", td_ms, "ms"},
      {"td_miss_ratio",
       crashes.empty() ? 0 : static_cast<double>(tardy + lost) / crashes.size(), "ratio"},
      {"td_late", static_cast<double>(tardy), "count"},
      {"suspects_lost", static_cast<double>(lost), "count"},
      {"delivery_p50_ms", delivery_p50, "ms"},
      {"delivery_p99_ms", delivery_p99, "ms"},
      {"delivery_samples", static_cast<double>(delivery_ms.size()), "count"},
      {"mistake_rate_per_h", static_cast<double>(mistakes) / sub_hours, "1/h"},
      {"service_cpu_us_per_hb", cpu, "us"},
      {"rss_per_sub_kb", ol.rss_per_sub_kb, "KiB"},
      {"heartbeat_interval_ms", interval_ms, "ms"},
      {"gen_late_p99_ms", late_p99, "ms"},
  };

  if (opt.trace) {
    fill_window_layers(res, a, b, fleet->sent_between(T0, T1), suspects_in_window);
    auto& L = res.layer;
    L["service.warmup_s"] = ol.warmup_s;
    L["config.chen_configure_us"] = chen_configure_us({kStrict, kRelaxed}, tracer, 1000);
    L["net.decode_ns"] = decode_ns(fleet->frames(), tracer, 20);
    L["service.handle_heartbeat_ns"] = handle_heartbeat_ns(kPeers, {kStrict, kRelaxed}, tracer, 20);
    L["bench.gen_late_p99_ms"] = late_p99;
    const double u = quantile(detect_untraced, 0.5), t = quantile(detect_traced, 0.5);
    L["trace.overhead_pct"] = u > 0 ? (t - u) / u * 100 : 0;
  }

  // The measured stack is left running: tearing it down releases every
  // subscription one blocking unsubscribe at a time, seconds that no
  // metric reads. main() exits the process without unwinding it.
  fleet.reset();
  static_cast<void>(st.release());
  return res;
}

}  // namespace fdbench
