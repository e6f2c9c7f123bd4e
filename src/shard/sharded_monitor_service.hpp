// Sharded multi-threaded monitoring runtime (the host-wide FD service at
// scale).
//
// One ShardedMonitorService partitions monitored peers across N shard
// workers by consistent peer-hash. Each worker owns a private
// net::EventLoop + service::Dispatcher + service::FdService (per-peer
// SharedMarginDetector set) — there is NO shared mutable detector state;
// **shard ownership is the invariant**: a peer's estimator, timers and
// subscriptions are only ever touched by the shard thread that owns the
// peer.
//
// Cross-thread interaction is restricted to three mechanisms:
//   1. Control plane (subscribe/unsubscribe/reconfigure/stats): any
//      thread marshals a command onto the owning shard through a
//      lock-free MpscQueue + EventLoop::wake(), and blocks on a promise
//      for the result.
//   2. Receive path: with ReceiveMode::kReusePort every shard binds the
//      service port with SO_REUSEPORT and the kernel spreads inbound
//      flows; with kSingleSocket (the portable fallback) shard 0 owns the
//      only service socket. Either way, a datagram landing on a shard
//      that does not own its source peer is handed off — raw bytes and
//      arrival stamps staged per destination for the duration of one
//      receive batch, then marshalled to each owner's command queue as a
//      single bulk command (at most one wake per shard per batch) and
//      re-injected there, so decoding and detector updates stay
//      shard-confined.
//   3. Aggregation: Suspect/Trust transitions flow out through per-shard
//      MPSC event queues. The first event after a drain pass wakes the
//      registered consumer (set_event_notifier), which drains them with
//      poll_events() into the aggregated per-subscription state. Readers
//      take a point lookup (verdict()) or a whole-view Snapshot built on
//      demand and cached until the state next changes (view()).
//
// Self-healing (Params::supervision): each worker loop advances a
// per-shard liveness counter once per slice; a supervisor thread watches
// those counters and the workers' exit flags. A worker that stops
// advancing is marked DEGRADED (surfaced in ShardStats/health() and as a
// subscription-0 health StatusEvent); a worker that exited — a command
// or handler threw — is additionally RESTARTED with capped exponential
// backoff: the shard's runtime (loop/dispatcher/service) is rebuilt on
// the same port, its subscriptions are re-seeded from the control
// registry, and a fresh worker thread is launched. The aggregated view
// keeps each subscription's last verdict across the restart, so verdict
// parity holds once the rebuilt detectors re-converge.
//
// Chaos (Params::chaos): when the plan has datagram faults, every shard
// routes inbound socket datagrams through a deterministic
// net::FaultInjector (per-shard seed derived from the plan seed) before
// dispatch — drop/duplicate/reorder/truncate/delay applied to real
// traffic for fault drills. Handed-off datagrams are injected once and
// never re-chaosed by the destination shard.
//
// See docs/runtime.md "Threading model" and "Self-healing and chaos
// testing" for the full rules, including shutdown ordering.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.hpp"
#include "common/runtime.hpp"
#include "config/qos_config.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "obs/metrics.hpp"
#include "service/dispatcher.hpp"
#include "service/fd_service.hpp"

namespace twfd::shard {

/// Consistent peer -> shard mapping (splitmix64 over ip:port). Stable
/// across processes and runs, so every layer — receive routing, control
/// plane, external tooling — agrees on ownership.
[[nodiscard]] std::size_t shard_of(const net::SocketAddress& addr,
                                   std::size_t shard_count);

class ShardedMonitorService {
 public:
  enum class ReceiveMode {
    /// Every shard binds the service port with SO_REUSEPORT; the kernel
    /// spreads inbound flows across the shard sockets (a given remote
    /// consistently lands on one socket). Misrouted peers are handed off.
    kReusePort,
    /// Shard 0 owns the only service socket and hands every datagram off
    /// to its hash-owner. Portable fallback; shard 0 pays the recv cost.
    kSingleSocket,
  };

  /// Supervisor tuning. The worker heartbeat period bounds how long a
  /// worker may sit inside one run_until slice; the stall timeout is the
  /// watchdog bound — a worker whose liveness counter does not advance
  /// for that long is declared degraded.
  struct Supervision {
    bool enabled = true;
    /// Worker loop slice: liveness advances once per slice.
    Tick worker_heartbeat_period = ticks_from_ms(20);
    /// Supervisor poll cadence.
    Tick check_interval = ticks_from_ms(20);
    /// No liveness advance for this long => degraded (watchdog bound).
    Tick stall_timeout = ticks_from_ms(500);
    /// Restart backoff ladder for crashed workers (doubles per restart,
    /// resets once the shard reports healthy again).
    Tick restart_backoff_min = ticks_from_ms(50);
    Tick restart_backoff_max = ticks_from_sec(2);
  };

  struct Params {
    std::size_t shards = 4;
    /// Service port remotes send heartbeats to (0 = ephemeral, resolved
    /// at construction; see port()).
    std::uint16_t port = 0;
    ReceiveMode receive_mode = ReceiveMode::kReusePort;
    /// SO_RCVBUF request per shard socket (0 = kernel default).
    int rcvbuf_bytes = 1 << 20;
    std::size_t command_queue_capacity = 1024;
    std::size_t event_queue_capacity = 1 << 14;
    Supervision supervision{};
    /// Pin each shard worker to its own core (shard i -> the i-th CPU the
    /// process may run on). Skipped gracefully — workers run unpinned and
    /// ShardStats::pinned stays 0 — when the host has fewer usable cores
    /// than shards, the platform lacks pthread_setaffinity_np, or the
    /// affinity call is refused. Survives supervisor restarts (the pin is
    /// applied at worker-thread entry).
    bool pin_cores = false;
    /// Datagram half of a fault plan, applied per shard to inbound
    /// traffic (RX chaos). Inactive unless any_datagram_faults().
    net::FaultPlan chaos{};
    /// Per-shard FdService tuning (windows, assumed network, slab
    /// pre-sizing via expected_peers, ...). `service.qos_tracker` is
    /// shared by every shard (the tracker is thread-safe per handle);
    /// `service.obs_heartbeats`/`obs_cell` are overwritten per shard
    /// when `registry` is set.
    service::FdService::Params service{};
    /// Optional obs registry: when set, the service registers a live
    /// twfd_shard_heartbeats_total ShardedCounter with one cell per
    /// shard (written relaxed on the heartbeat path) and wires it into
    /// each shard's FdService. Must outlive the service.
    obs::Registry* registry = nullptr;
  };

  using SubscriptionId = std::uint64_t;

  /// Subscription id carried by shard health events: Suspect = the named
  /// shard is degraded (stalled or crashed), Trust = it recovered. The
  /// event's `app` is "shard-N". Health events flow through poll_events()
  /// like verdicts but never appear in the aggregated view.
  static constexpr SubscriptionId kHealthSubscription = 0;

  /// A Suspect/Trust transition, stamped with the owning shard.
  struct StatusEvent {
    SubscriptionId subscription = 0;
    std::string app;
    detect::Output output = detect::Output::Trust;
    Tick when = 0;
    std::size_t shard = 0;
  };

  /// Immutable copy of the aggregated view, as returned by view().
  struct Snapshot {
    struct Entry {
      SubscriptionId subscription = 0;
      std::string app;
      detect::Output output = detect::Output::Trust;
      Tick since = 0;  ///< instant of the last transition (0 = none yet)
      std::size_t shard = 0;
    };
    std::vector<Entry> entries;  ///< ordered by subscription id
    std::uint64_t events_seen = 0;
  };

  /// Per-shard observability, gathered race-free by marshalling a stats
  /// command onto each shard (or read directly once stopped). A restart
  /// rebuilds the shard runtime, so the shard-confined counters (loop,
  /// dispatcher, service, handoff) restart from zero; the supervision
  /// counters are service-owned atomics and survive.
  struct ShardStats {
    net::EventLoop::Stats loop;
    std::uint64_t dispatcher_heartbeats = 0;
    std::uint64_t dispatcher_malformed = 0;
    std::uint64_t service_heartbeats = 0;
    std::uint64_t handoff_out = 0;      ///< datagrams forwarded to siblings
    std::uint64_t handoff_dropped = 0;  ///< forwards lost: sibling queue full
    /// Hand-off flush commands pushed (one per destination shard per
    /// receive batch). handoff_out / handoff_batches is the wake-
    /// coalescing factor the batched receive path buys.
    std::uint64_t handoff_batches = 0;
    std::uint64_t commands_run = 0;
    std::uint64_t events_dropped = 0;   ///< transitions lost: event queue full
    // --- supervision / control-plane resilience ---
    std::uint64_t post_retries = 0;   ///< control pushes that found the queue full
    std::uint64_t post_stalls = 0;    ///< posts abandoned: queue wedged
    std::uint64_t restarts = 0;       ///< supervisor rebuilds of this shard
    std::uint64_t stalls_detected = 0;  ///< degraded-while-alive detections
    std::uint64_t resubscribed = 0;   ///< subscriptions re-seeded by restarts
    std::uint64_t degraded = 0;       ///< gauge: 1 while marked degraded
    std::uint64_t pinned = 0;         ///< gauge: 1 if the worker is core-pinned
    /// RX chaos accounting (all zero unless Params::chaos is active).
    net::FaultStats chaos;

    ShardStats& operator+=(const ShardStats& o);
  };

  /// Lock-free supervision snapshot for one shard (any thread).
  struct ShardHealth {
    bool degraded = false;
    bool worker_exited = false;
    std::uint64_t restarts = 0;
    std::uint64_t stalls_detected = 0;
    std::uint64_t liveness = 0;
  };

  /// Test seam: makes the shard worker misbehave on purpose so the
  /// supervisor path can be exercised deterministically.
  enum class WorkerFault {
    kCrash,  ///< the worker thread throws and exits
    kStall,  ///< the worker thread sleeps for `stall_for` without serving
  };

  explicit ShardedMonitorService(Params params);
  ~ShardedMonitorService();

  ShardedMonitorService(const ShardedMonitorService&) = delete;
  ShardedMonitorService& operator=(const ShardedMonitorService&) = delete;

  /// Spawns the shard worker threads (and the supervisor when enabled).
  /// Call before any control-plane op.
  void start();
  /// Stops the supervisor, then every shard loop; joins the workers,
  /// discards unexecuted commands (their waiters see broken_promise) and
  /// drains remaining events into the aggregated view. Idempotent. Do not race
  /// control-plane calls against stop().
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// The service port remotes send heartbeats to. In kReusePort mode all
  /// shards share it; in kSingleSocket mode it is shard 0's socket.
  /// Stable across shard restarts.
  [[nodiscard]] std::uint16_t port() const noexcept { return service_port_; }
  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t shard_for(const net::SocketAddress& addr) const {
    return shard_of(addr, shards_.size());
  }

  /// One subscription's verdict in the aggregated view (verdict()).
  ///
  /// As subscribe()'s `initial` argument it is the prior-incarnation
  /// verdict that primes a subscription re-created from a crash-persisted
  /// seed (snapshot restore, shard re-seed). The aggregated view starts
  /// at `output`/`since` and the shard-local detector is primed to match,
  /// so a restored subscription emits only the NET transition relative to
  /// the previous incarnation — no duplicate Suspect for a peer that was
  /// already down, exactly one Trust when a suspected peer turns out to
  /// be alive.
  struct Verdict {
    detect::Output output = detect::Output::Trust;
    Tick since = 0;  ///< instant of the last transition (0 = none yet)
  };

  /// Portable description of one live subscription joined with its
  /// current verdict — the unit of crash persistence. export_seeds()
  /// captures every subscription; import_seed() re-creates one with the
  /// verdict primed (see Verdict).
  struct SubscriptionSeed {
    net::SocketAddress peer;
    std::uint64_t sender_id = 0;
    std::string app;
    config::QosRequirements qos;
    detect::Output last = detect::Output::Trust;
    Tick since = 0;
  };

  // --- Control plane (any thread; blocks until the owning shard acks) ---

  /// Registers `app` to monitor the process `sender_id` reachable at
  /// `peer` with QoS tuple `qos`. Throws std::logic_error (from the
  /// owning shard) when the tuple is infeasible, std::runtime_error when
  /// the owning shard's command queue is wedged. `initial` primes the
  /// verdict for seeds restored from a snapshot (defaults to Trust — the
  /// cold-subscribe behaviour, unchanged).
  SubscriptionId subscribe(const net::SocketAddress& peer, std::uint64_t sender_id,
                           std::string app, const config::QosRequirements& qos);
  SubscriptionId subscribe(const net::SocketAddress& peer, std::uint64_t sender_id,
                           std::string app, const config::QosRequirements& qos,
                           Verdict initial);
  void unsubscribe(SubscriptionId id);

  /// Snapshot of every live subscription joined with its current view
  /// verdict, in subscription-id order. Safe from any thread while the
  /// service runs (control registry + aggregated view; no shard marshal).
  [[nodiscard]] std::vector<SubscriptionSeed> export_seeds();
  /// Re-creates a persisted subscription with its verdict primed.
  /// Equivalent to subscribe(peer, ..., {seed.last, seed.since}).
  SubscriptionId import_seed(const SubscriptionSeed& seed);
  /// Forces a reconfiguration pass for `peer` on its owning shard.
  void reconfigure(const net::SocketAddress& peer);

  // --- Aggregation ---

  /// Drains every shard's event queue into the aggregated view; `fn`
  /// (optional) observes each event in shard-major order. The view is
  /// updated under the aggregation lock, but the listener and `fn` run
  /// after it is released, so they may call back into subscribe() and
  /// unsubscribe() (but not poll_events()). Drains are serialized, so
  /// callbacks see events in order. Returns the number of events drained.
  std::size_t poll_events(const std::function<void(const StatusEvent&)>& fn = {});

  /// Standing per-event export hook, invoked from poll_events() for
  /// every drained event (health events included), before the per-call
  /// `fn`. This is the federation tier's transition feed: the FDaaS
  /// server is the sole poll_events() caller in the live runtime, so
  /// the listener runs on the API thread. Set before start(); not
  /// synchronized against concurrent poll_events() calls.
  void set_event_listener(std::function<void(const StatusEvent&)> listener) {
    event_listener_ = std::move(listener);
  }

  /// Registers the single event consumer's wake-up. When an event lands
  /// in a drained queue set, `notifier` runs once, on the publishing
  /// thread (a shard worker or the supervisor); further events ride that
  /// wake-up until the next poll_events() pass begins. It must be cheap
  /// and must not block, e.g. EventLoop::wake(). Registration calls it
  /// once, so events queued earlier are not stranded. Safe while shards
  /// run; an empty function clears it, and no call is in flight once
  /// the clearing call returns.
  void set_event_notifier(std::function<void()> notifier);

  /// Current verdict of one subscription (nullopt once unsubscribed or
  /// never known). A point lookup under the aggregation lock.
  [[nodiscard]] std::optional<Verdict> verdict(SubscriptionId id) const;

  /// The whole aggregated view as an immutable Snapshot. Built on demand
  /// (O(subscriptions)) and cached until the view next changes, so
  /// repeated reads between changes share one copy.
  [[nodiscard]] std::shared_ptr<const Snapshot> view() const;

  // --- Supervision ---

  /// Lock-free health read for one shard (any thread, any time).
  [[nodiscard]] ShardHealth health(std::size_t shard) const;
  /// Number of shards currently marked degraded.
  [[nodiscard]] std::size_t degraded_count() const;

  /// Injects a worker fault (test seam; see WorkerFault). Asynchronous:
  /// the fault lands when the worker next drains its command queue.
  void inject_worker_fault(std::size_t shard, WorkerFault fault,
                           Tick stall_for = 0);

  /// Race-free per-shard counters (marshalled; see ShardStats). A shard
  /// whose worker is dead or wedged answers with its supervision atomics
  /// only (shard-confined counters read as zero) after a bounded wait.
  [[nodiscard]] std::vector<ShardStats> shard_stats();
  /// Element-wise sum of shard_stats().
  [[nodiscard]] ShardStats merged_stats();

 private:
  using Command = std::function<void()>;

  /// Foreign datagrams staged during one receive batch, bound for one
  /// destination shard: raw bytes in a flat buffer plus per-datagram
  /// (source, extent, arrival) records. Flushed as ONE command and at
  /// most one wake at batch end; the flush moves the buffers into the
  /// command closure, so marshalling costs one allocation per destination
  /// shard per batch rather than one per datagram.
  struct HandoffStage {
    struct Item {
      net::SocketAddress from;
      Tick arrival = 0;
      std::uint32_t offset = 0;  ///< into `bytes`
      std::uint32_t length = 0;
    };
    std::vector<std::byte> bytes;
    std::vector<Item> items;

    [[nodiscard]] bool empty() const noexcept { return items.empty(); }
  };

  struct Shard {
    std::size_t index = 0;
    // Rebind target for restarts (the resolved port, not the requested
    // one, so an ephemeral service port stays stable across rebuilds).
    std::uint16_t bind_port = 0;
    bool reuse_port = false;
    std::unique_ptr<net::EventLoop> loop;
    std::unique_ptr<service::Dispatcher> dispatcher;
    std::unique_ptr<service::FdService> fd;
    /// RX chaos wrapper (null unless Params::chaos is active).
    std::unique_ptr<net::FaultInjector> chaos;
    MpscQueue<Command> commands;
    MpscQueue<StatusEvent> events;
    std::atomic<bool> stop_requested{false};
    // Shard-thread-only: per-destination hand-off staging for the batch
    // currently being drained (index = destination shard; own slot unused).
    std::vector<HandoffStage> staging;
    // Shard-thread-only: set while replaying a hand-off batch so injected
    // datagrams are not run through the chaos plan a second time.
    bool in_handoff = false;
    // Shard-thread-only counters (published via the stats command).
    std::uint64_t handoff_out = 0;
    std::uint64_t handoff_dropped = 0;
    std::uint64_t handoff_batches = 0;
    std::uint64_t commands_run = 0;
    std::atomic<std::uint64_t> events_dropped{0};
    // --- supervision state (service-owned atomics; survive restarts) ---
    std::atomic<std::uint64_t> liveness{0};  ///< advanced once per worker slice
    std::atomic<bool> worker_exited{false};
    std::atomic<bool> degraded{false};
    std::atomic<std::uint64_t> restarts{0};
    std::atomic<std::uint64_t> stalls_detected{0};
    std::atomic<std::uint64_t> post_retries{0};
    std::atomic<std::uint64_t> post_stalls{0};
    std::atomic<std::uint64_t> resubscribed{0};
    std::atomic<bool> pinned{false};  ///< worker is affinity-pinned right now
    /// Guards the runtime pointers (loop/dispatcher/fd/chaos) against the
    /// supervisor swapping them during a restart while another thread
    /// wakes or reads the shard. The worker thread itself never takes it:
    /// a swap only happens after the worker exited and was joined.
    std::mutex swap_mu;
    std::thread thread;

    Shard(std::size_t idx, const Params& params);
  };

  void build_shard_runtime(Shard& s);
  /// Applies Params::pin_cores at worker entry; no-op skip when the host
  /// cannot honour it (see the Params field).
  void maybe_pin(Shard& s);
  void worker_main(Shard& s);
  void drain_commands(Shard& s);
  void route_datagram(Shard& s, const net::SocketAddress& from,
                      std::span<const std::byte> data, Tick arrival);
  void flush_handoffs(Shard& s);
  void post(Shard& s, Command cmd);
  /// wake() under swap_mu: safe against a concurrent runtime rebuild.
  void wake_shard(Shard& s);
  void publish_event(Shard& s, StatusEvent event);
  [[nodiscard]] ShardStats collect_stats_on_shard(Shard& s) const;
  [[nodiscard]] ShardStats collect_supervision_stats(Shard& s) const;

  // --- supervisor machinery ---
  void supervisor_main();
  /// Joins the exited worker, rebuilds the shard runtime on the same
  /// port, re-seeds its subscriptions from the control registry, and
  /// relaunches the worker thread. Returns false when the rebuild itself
  /// failed (e.g. rebind raced a port thief); the caller backs off.
  bool restart_shard(Shard& s);
  void emit_health(Shard& s, detect::Output output);

  Params params_;
  obs::ShardedCounter* live_heartbeats_ = nullptr;  // set iff Params::registry
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint16_t service_port_ = 0;
  bool running_ = false;

  // Control-plane registry: global subscription id -> owning shard, the
  // shard-local FdService id, and everything needed to re-seed the
  // subscription when the owning shard is rebuilt after a crash.
  struct SubRef {
    std::size_t shard = 0;
    service::FdService::SubscriptionId local = 0;
    net::SocketAddress peer;
    std::uint64_t sender_id = 0;
    std::string app;
    config::QosRequirements qos;
  };
  std::mutex control_mu_;
  std::map<SubscriptionId, SubRef> subs_;
  std::atomic<SubscriptionId> next_sub_id_{1};

  // Supervisor thread: woken early for shutdown via the cv.
  std::thread supervisor_;
  std::mutex sup_mu_;
  std::condition_variable sup_cv_;
  bool sup_stop_ = false;

  // Aggregation state. agg_mu_ guards state_ (the single source of truth
  // for verdicts), its version and the view() cache; it is held for a map
  // update or lookup per event or call (for O(n) only while view()
  // rebuilds its cache), never while a callback runs. consumer_mu_
  // serializes poll_events() passes and owns the drain batch, so events
  // reach the listener in order even though they are delivered outside
  // agg_mu_.
  mutable std::mutex agg_mu_;
  std::map<SubscriptionId, Snapshot::Entry> state_;
  std::uint64_t events_seen_ = 0;
  std::uint64_t version_ = 0;  ///< bumped on every change to state_
  mutable std::shared_ptr<const Snapshot> view_cache_;
  mutable std::uint64_t view_cache_version_ = 0;
  std::mutex consumer_mu_;
  std::vector<StatusEvent> drained_;
  std::function<void(const StatusEvent&)> event_listener_;

  // Consumer wake-up. events_signalled_ is set by the publish that finds
  // it clear (that publisher calls notifier_) and cleared by the consumer
  // as a poll_events() pass begins, so a burst costs one wake per pass.
  // Both sides use RMW exchanges: whichever comes second in the flag's
  // modification order sees the other, so no event is stranded.
  std::atomic<bool> events_signalled_{false};
  /// Guards notifier_ and is held across each call, so clearing the
  /// notifier waits out a call in flight.
  std::mutex notifier_mu_;
  std::function<void()> notifier_;
};

}  // namespace twfd::shard
