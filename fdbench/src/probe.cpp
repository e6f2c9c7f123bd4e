#include "probe.hpp"

#include <arpa/inet.h>
#include <sched.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <queue>
#include <stdexcept>

#include "net/event_loop.hpp"
#include "net/udp_socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/qos_tracker.hpp"
#include "service/fd_service.hpp"

// ---------------------------------------------------------------------------
// Allocation counter: every heap allocation in the process bumps g_allocs
// (aligned overloads included — the peer slab allocates cache-line-aligned).
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(al), sizeof(void*)),
                     n ? n : 1) == 0) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fdbench {

Tick now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_until_ns(Tick t) {
  const Tick now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

namespace {
std::atomic<const char*> g_phase{"start"};
}  // namespace

void set_phase(const char* phase) { g_phase.store(phase, std::memory_order_relaxed); }
const char* phase() { return g_phase.load(std::memory_order_relaxed); }

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
  if (enabled_) spans_.reserve(reserve);
}

std::uint64_t Tracer::record(const char* name, Tick start, Tick end, std::uint64_t trace,
                             std::uint64_t parent, std::uint64_t items) {
  if (!enabled_) return 0;
  std::lock_guard lk(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({name, start, end, id, parent, trace, items});
  return id;
}

std::vector<Span> Tracer::named(const char* name) const {
  std::lock_guard lk(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s);
  }
  return out;
}

double Tracer::ns_per_item(const char* name) const {
  double ns = 0;
  double items = 0;
  for (const Span& s : named(name)) {
    ns += static_cast<double>(s.end - s.start);
    items += static_cast<double>(s.items);
  }
  return items > 0 ? ns / items : 0.0;
}

void Tracer::write(const std::string& path) const {
  if (!enabled_) return;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  std::lock_guard lk(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.trace << ",\"start_ns\":" << s.start
        << ",\"end_ns\":" << s.end << ",\"items\":" << s.items << "}\n";
  }
}

// --- statistics ---------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<std::uint64_t>& buckets, double q) {
  std::uint64_t total = 0;
  for (const auto b : buckets) total += b;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double next = seen + static_cast<double>(buckets[i]);
    if (next >= rank && buckets[i] > 0) {
      if (i >= bounds.size()) return bounds.back();  // +Inf bucket: clamp
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      return lo + (bounds[i] - lo) * ((rank - seen) / static_cast<double>(buckets[i]));
    }
    seen = next;
  }
  return bounds.back();
}

// --- /proc -----------------------------------------------------------------------

std::uint64_t rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::set<int> thread_ids() {
  std::set<int> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.insert(std::atoi(e.path().filename().c_str()));
  }
  return out;
}

std::uint64_t thread_cpu_ns(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::uint64_t ns = 0;
  in >> ns;
  return ns;
}

std::uint64_t threads_cpu_ns(const std::set<int>& tids) {
  std::uint64_t sum = 0;
  for (const int t : tids) sum += thread_cpu_ns(t);
  return sum;
}

std::set<int> new_threads(const std::set<int>& before, const std::set<int>& after) {
  std::set<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                      std::inserter(out, out.begin()));
  return out;
}

std::uint64_t llc_bytes() {
  for (const int level : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long n = sysconf(level);
    if (n > 0) return static_cast<std::uint64_t>(n);
  }
  return 0;
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

double chen_configure_us(const std::vector<twfd::config::QosRequirements>& tuples,
                         Tracer& tracer, int reps) {
  const twfd::config::NetworkBehaviour assumed{0.01, 1e-4};
  std::vector<double> per_call;
  volatile double sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const Tick t0 = now_ns();
    for (int r = 0; r < reps; ++r) {
      for (const auto& q : tuples) sink = sink + twfd::config::chen_configure(q, assumed).interval_s;
    }
    const Tick t1 = now_ns();
    const auto calls = static_cast<std::uint64_t>(reps) * tuples.size();
    tracer.record("config.chen_configure", t0, t1, 0, 0, calls);
    per_call.push_back(static_cast<double>(t1 - t0) / 1e3 / static_cast<double>(calls));
  }
  return median(per_call);
}

double decode_ns(const std::vector<std::byte>& frames, Tracer& tracer, int passes) {
  constexpr std::size_t kSize = twfd::net::HeartbeatMsg::kWireSize;
  constexpr std::size_t kBatch = 1024;
  const std::size_t n = frames.size() / kSize;
  std::vector<double> per_decode;
  std::int64_t sink = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t b = 0; b < n; b += kBatch) {
      const std::size_t e = std::min(n, b + kBatch);
      const Tick t0 = now_ns();
      for (std::size_t i = b; i < e; ++i) {
        const auto msg = twfd::net::decode(
            std::span<const std::byte>(frames.data() + i * kSize, kSize));
        if (msg) sink += std::get<twfd::net::HeartbeatMsg>(*msg).seq;
      }
      const Tick t1 = now_ns();
      tracer.record("net.decode", t0, t1, 0, 0, e - b);
      per_decode.push_back(static_cast<double>(t1 - t0) / static_cast<double>(e - b));
    }
  }
  if (sink == -1) std::puts("");  // keeps the decode loop observable
  return median(per_decode);
}

double handle_heartbeat_ns(std::size_t peers,
                           const std::vector<twfd::config::QosRequirements>& per_peer,
                           Tracer& tracer, int passes) {
  using namespace twfd;
  obs::Registry registry;
  obs::QosTracker tracker(registry);
  net::EventLoop loop(net::UdpSocket::Options{});
  service::FdService::Params params;
  params.expected_peers = peers;
  params.qos_tracker = &tracker;
  const std::size_t max_window = *std::max_element(params.windows.begin(), params.windows.end());
  service::FdService fd(loop.runtime(), params);

  // Unroutable 127.2.0.0/16 sources, as in peer_scale: the subscribe-time
  // IntervalRequests reach no peer of the running workload.
  std::vector<PeerId> ids(peers);
  std::vector<net::HeartbeatMsg> msgs(peers);
  for (std::size_t i = 0; i < peers; ++i) {
    ids[i] = loop.add_peer({0x7f020000u + static_cast<std::uint32_t>(i), 4242});
    for (const auto& q : per_peer) {
      fd.subscribe(ids[i], i + 1, "probe", q, [](const service::FdService::StatusEvent&) {});
    }
    msgs[i].sender_id = i + 1;
    msgs[i].interval = fd.shared_interval(ids[i]);
  }
  const Tick base = loop.now();
  const auto feed = [&](std::size_t i, std::int64_t seq) {
    msgs[i].seq = seq;
    msgs[i].send_time = base + seq * msgs[i].interval;
    fd.handle_heartbeat(ids[i], msgs[i], msgs[i].send_time + ticks_from_us(50));
  };
  for (std::size_t i = 0; i < peers; ++i) {
    for (std::size_t s = 1; s <= max_window; ++s) feed(i, static_cast<std::int64_t>(s));
  }

  constexpr std::size_t kBatch = 256;
  std::vector<double> per_call;
  auto seq = static_cast<std::int64_t>(max_window);
  for (int pass = 0; pass < passes; ++pass) {
    ++seq;
    for (std::size_t b = 0; b < peers; b += kBatch) {
      const std::size_t e = std::min(peers, b + kBatch);
      const Tick t0 = now_ns();
      for (std::size_t i = b; i < e; ++i) feed(i, seq);
      const Tick t1 = now_ns();
      tracer.record("service.handle_heartbeat", t0, t1, 0, 0, e - b);
      per_call.push_back(static_cast<double>(t1 - t0) / static_cast<double>(e - b));
    }
  }
  return median(per_call);
}

int http_get(std::uint16_t port, const std::string& path, std::string& body) {
  body.clear();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int status = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size())) {
      std::string resp;
      char buf[1 << 16];
      for (;;) {
        const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
        if (r <= 0) break;
        resp.append(buf, static_cast<std::size_t>(r));
      }
      if (resp.rfind("HTTP/1.", 0) == 0 && resp.size() > 12) {
        status = std::atoi(resp.c_str() + 9);
      }
      const auto sep = resp.find("\r\n\r\n");
      if (sep != std::string::npos) body = resp.substr(sep + 4);
    }
  }
  ::close(fd);
  return status;
}


namespace {
// The CPUs this process may use, captured before any thread is pinned.
const cpu_set_t& process_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  return set;
}
const bool g_cpus_captured = (process_cpus(), true);
}  // namespace

bool pin_to_cores(int tid, std::size_t first, std::size_t count) {
  const cpu_set_t& avail = process_cpus();
  cpu_set_t rest;
  CPU_ZERO(&rest);
  std::size_t seen = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &avail)) continue;
    if (seen >= first && seen - first < count) CPU_SET(c, &rest);
    ++seen;
  }
  return CPU_COUNT(&rest) > 0 && sched_setaffinity(tid, sizeof(rest), &rest) == 0;
}

// --- PeerFleet ---------------------------------------------------------------------

namespace {

constexpr std::size_t kFrame = twfd::net::HeartbeatMsg::kWireSize;

}  // namespace

std::size_t count_series(const std::string& body) {
  std::size_t series = 0;
  for (std::size_t p = 0; p < body.size();) {
    const std::size_t e = body.find('\n', p);
    if (body[p] != '#') ++series;
    p = e == std::string::npos ? body.size() : e + 1;
  }
  return series;
}

PeerFleet::PeerFleet(std::size_t peers, std::uint16_t service_port, std::uint64_t seed)
    : peers_(peers), frames_(peers * kFrame), service_port_(service_port), rng_(seed) {
  epfd_ = ::epoll_create1(0);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  for (std::size_t i = 0; i < peers; ++i) {
    Peer& p = peers_[i];
    p.fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
    if (p.fd < 0) throw std::runtime_error("peer socket failed (fd limit?)");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(p.fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      throw std::runtime_error("peer bind failed");
    }
    socklen_t len = sizeof(sa);
    ::getsockname(p.fd, reinterpret_cast<sockaddr*>(&sa), &len);
    p.port = ntohs(sa.sin_port);
    p.interval = twfd::ticks_from_sec(1);  // the sender's own ceiling
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, p.fd, &ev);
    twfd::net::HeartbeatMsg hb;
    hb.sender_id = sender_id(i);
    const auto bytes = twfd::net::encode(hb);
    std::memcpy(frames_.data() + i * kFrame, bytes.data(), kFrame);
  }
}

PeerFleet::~PeerFleet() {
  stop();
  for (const Peer& p : peers_) ::close(p.fd);
  ::close(epfd_);
}

void PeerFleet::poll_requests() {
  epoll_event evs[256];
  for (;;) {
    const int n = ::epoll_wait(epfd_, evs, 256, 0);
    if (n <= 0) return;
    for (int k = 0; k < n; ++k) {
      Peer& p = peers_[evs[k].data.u64];
      std::byte buf[256];
      for (;;) {
        const ssize_t r = ::recv(p.fd, buf, sizeof(buf), 0);
        if (r <= 0) break;
        const auto msg = twfd::net::decode(
            std::span<const std::byte>(buf, static_cast<std::size_t>(r)));
        if (!msg || !std::holds_alternative<twfd::net::IntervalRequestMsg>(*msg)) continue;
        // Honour the request like HeartbeatSender does for its only
        // requester: the cadence re-anchors on the last send.
        const Tick want = std::get<twfd::net::IntervalRequestMsg>(*msg).requested_interval;
        if (want > 0 && want != p.interval) {
          if (p.next_due != 0) p.next_due = p.next_due - p.interval + want;
          p.interval = want;
        }
      }
    }
  }
}

std::size_t PeerFleet::absorb_interval_requests() {
  poll_requests();
  std::size_t n = 0;
  for (const Peer& p : peers_) n += p.interval < twfd::ticks_from_sec(1) ? 1 : 0;
  return n;
}

void PeerFleet::start(std::size_t expected_sends) {
  sends_.reserve(expected_sends);
  const Tick t0 = now_ns();
  for (Peer& p : peers_) {
    std::uniform_int_distribution<Tick> phase(0, p.interval - 1);
    p.next_due = t0 + phase(rng_);
  }
  stop_ = false;
  thread_ = std::thread([this] { run(); });
}

void PeerFleet::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void PeerFleet::run() {
  using Item = std::pair<Tick, std::size_t>;  // (due, peer)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> due;
  for (std::size_t i = 0; i < peers_.size(); ++i) due.push({peers_[i].next_due, i});
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(service_port_);
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Tick next_poll = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    Tick now = now_ns();
    if (now >= next_poll) {
      poll_requests();
      next_poll = now + twfd::ticks_from_ms(20);
    }
    while (!due.empty() && due.top().first <= now) {
      const auto [queued, i] = due.top();
      due.pop();
      Peer& p = peers_[i];
      if (queued != p.next_due) {  // interval changed: requeue at the new due
        due.push({p.next_due, i});
        continue;
      }
      const Tick when = p.next_due;
      ++p.seq;
      p.next_due = when + p.interval;
      due.push({p.next_due, i});
      bool down = false;
      const Tick epoch = epoch_.load(std::memory_order_relaxed);
      if (epoch != INT64_MAX && i < down_.size()) {
        for (const Down& d : down_[i]) down |= when - epoch >= d.from && when - epoch < d.to;
      }
      if (down) continue;
      std::byte* frame = frames_.data() + i * kFrame;
      patch_i64(frame, kSeqAt, p.seq);
      patch_i64(frame, kSendTimeAt, when);
      patch_i64(frame, kIntervalAt, p.interval);
      now = now_ns();
      ::sendto(p.fd, frame, kFrame, 0, reinterpret_cast<sockaddr*>(&dst), sizeof(dst));
      if (sends_.size() < sends_.capacity()) sends_.push_back({when, now});
    }
    const Tick next = due.empty() ? now + twfd::ticks_from_ms(1) : due.top().first;
    const Tick wait = std::min<Tick>(next - now_ns(), twfd::ticks_from_ms(5));
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
}

std::vector<double> PeerFleet::lateness_ms(Tick from, Tick to) const {
  std::vector<double> out;
  for (const auto& [due, at] : sends_) {
    if (due >= from && due < to) out.push_back(static_cast<double>(at - due) / 1e6);
  }
  return out;
}

std::uint64_t PeerFleet::sent_between(Tick from, Tick to) const {
  std::uint64_t n = 0;
  for (const auto& [due, at] : sends_) n += (due >= from && due < to) ? 1 : 0;
  return n;
}

std::vector<std::byte> PeerFleet::frames() const { return frames_; }

}  // namespace fdbench
