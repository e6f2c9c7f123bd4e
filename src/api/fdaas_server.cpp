#include "api/fdaas_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#include "common/assert.hpp"
#include "obs/exporters.hpp"

namespace twfd::api {

FdaasServer::Stats& FdaasServer::Stats::operator+=(const Stats& o) {
  sessions_accepted += o.sessions_accepted;
  sessions_active += o.sessions_active;
  sessions_rejected += o.sessions_rejected;
  subscriptions_active += o.subscriptions_active;
  subscriptions_total += o.subscriptions_total;
  frames_received += o.frames_received;
  frames_malformed += o.frames_malformed;
  events_pushed += o.events_pushed;
  events_unroutable += o.events_unroutable;
  slow_evictions += o.slow_evictions;
  lease_expiries += o.lease_expiries;
  disconnects += o.disconnects;
  accept_resource_failures += o.accept_resource_failures;
  accept_aborted += o.accept_aborted;
  conn_soft_errors += o.conn_soft_errors;
  bytes_sent += o.bytes_sent;
  bytes_received += o.bytes_received;
  health_broadcasts += o.health_broadcasts;
  post_retries += o.post_retries;
  post_stalls += o.post_stalls;
  digests_ingested += o.digests_ingested;
  digest_entries_applied += o.digest_entries_applied;
  digest_entries_stale += o.digest_entries_stale;
  digest_entries_foreign += o.digest_entries_foreign;
  digest_frames_flushed += o.digest_frames_flushed;
  fed_subscriptions_active += o.fed_subscriptions_active;
  fed_events_pushed += o.fed_events_pushed;
  delegates_sent += o.delegates_sent;
  snapshot_saves += o.snapshot_saves;
  snapshot_save_failures += o.snapshot_save_failures;
  snapshot_restored_subs += o.snapshot_restored_subs;
  snapshot_replayed_transitions += o.snapshot_replayed_transitions;
  orphans_active += o.orphans_active;
  orphans_claimed += o.orphans_claimed;
  orphans_expired += o.orphans_expired;
  snapshot_age_ns += o.snapshot_age_ns;
  snapshot_bytes += o.snapshot_bytes;
  fed_children_restored += o.fed_children_restored;
  return *this;
}

FdaasServer::FdaasServer(shard::ShardedMonitorService& service, Params params)
    : service_(service),
      params_(std::move(params)),
      listener_({params_.port}),
      loop_(std::make_unique<net::EventLoop>(std::uint16_t{0})),
      commands_(256) {
  TWFD_CHECK_MSG(params_.lease > 0, "lease must be positive");
  if (params_.registry != nullptr) init_obs();
}

void FdaasServer::init_obs() {
  obs::Registry& r = *params_.registry;
  obs_export_ = std::make_unique<obs::FdaasExport>(r);
  obs_loop_export_ =
      std::make_unique<obs::EventLoopExport>(r, obs::make_labels({{"loop", "api"}}));
  obs_event_latency_ = &r.histogram(
      "twfd_api_event_latency_seconds",
      "Shard transition to client send-queue latency.",
      {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0});
}

void FdaasServer::refresh_obs() {
  if (obs_export_ == nullptr) return;
  obs_export_->update(collect_stats());
  obs_loop_export_->update(loop_->stats());
}

FdaasServer::~FdaasServer() { stop(); }

void FdaasServer::set_child_reattach_hook(
    std::function<void(std::uint64_t)> hook) {
  TWFD_CHECK_MSG(!running_, "set_child_reattach_hook() must precede start()");
  child_reattach_hook_ = std::move(hook);
}

void FdaasServer::start() {
  TWFD_CHECK_MSG(!running_, "server already started");
  // Restore before the API thread exists: the orphan maps are built
  // single-threaded here and only ever touched by the API thread after
  // the spawn below (thread creation orders the writes).
  if (persistence_enabled() && !restore_attempted_) {
    restore_attempted_ = true;  // an in-process re-start() must not double-seed
    restore_from_snapshot();
  }
  stop_requested_.store(false, std::memory_order_release);
  running_ = true;
  thread_ = std::thread([this] { worker_main(); });
}

void FdaasServer::stop() {
  if (!running_) return;
  stop_requested_.store(true, std::memory_order_release);
  loop_->stop();
  if (thread_.joinable()) thread_.join();
  running_ = false;
  Command cmd;
  while (commands_.try_pop(cmd)) cmd = nullptr;  // waiters see broken_promise
}

void FdaasServer::attach_federation(
    FederationAdapter* adapter,
    std::function<void(std::vector<DigestMsg>)> upstream_sink) {
  TWFD_CHECK_MSG(!running_, "attach_federation() must precede start()");
  TWFD_CHECK_MSG(adapter != nullptr, "null federation adapter");
  adapter_ = adapter;
  upstream_sink_ = std::move(upstream_sink);
  adapter_->set_transition_sink(
      [this](const DigestEntry& e) { fed_fanout(e); });
}

void FdaasServer::run_on_api_thread(const std::function<void()>& fn) {
  if (!running_) {
    fn();
    return;
  }
  auto prom = std::make_shared<std::promise<void>>();
  auto fut = prom->get_future();
  post([&fn, prom] {
    fn();
    prom->set_value();
  });
  fut.get();
}

bool FdaasServer::send_delegate(std::uint64_t child_node, DelegateMsg msg) {
  bool sent = false;
  run_on_api_thread([this, child_node, &msg, &sent] {
    const auto child = child_sessions_.find(child_node);
    if (child == child_sessions_.end()) return;
    const auto it = sessions_.find(child->second);
    if (it == sessions_.end()) return;
    if (send_frame(*it->second, msg)) {
      ++stats_.delegates_sent;
      sent = true;
    }
  });
  return sent;
}

void FdaasServer::worker_main() {
  loop_->set_wake_handler([this] { on_wake(); });
  loop_->watch_fd(listener_.fd(), net::kFdRead,
                  [this](unsigned) { on_accept(); });
  // Shards wake this loop when transitions are queued; on_wake drains
  // them. Registration kicks one wake for events queued before start().
  service_.set_event_notifier([this] { loop_->wake(); });
  arm_lease_timer();
  if (adapter_ != nullptr) arm_fed_flush_timer();
  if (persistence_enabled() && params_.snapshot_interval > 0) arm_snapshot_timer();

  while (!stop_requested_.load(std::memory_order_acquire)) {
    loop_->run_until(kTickInfinity);
  }
  service_.set_event_notifier({});

  // Teardown (single-threaded: the loop no longer runs). The final
  // snapshot is flushed FIRST: close_session releases every client
  // subscription, so saving after the close loop would persist an empty
  // registry and a graceful restart would cold-start.
  if (persistence_enabled()) save_snapshot();
  // Sessions are closed and their subscriptions released while the
  // monitoring service is still up — the documented shutdown order is
  // server before service.
  std::vector<std::uint64_t> sids;
  sids.reserve(sessions_.size());
  for (const auto& [sid, s] : sessions_) sids.push_back(sid);
  for (const std::uint64_t sid : sids) close_session(sid);
  loop_->unwatch_fd(listener_.fd());
  loop_->cancel(lease_timer_);
  if (fed_flush_timer_ != kInvalidTimer) loop_->cancel(fed_flush_timer_);
  if (snapshot_timer_ != kInvalidTimer) loop_->cancel(snapshot_timer_);
}

void FdaasServer::on_wake() {
  drain_commands();
  // The API thread is the only consumer that delivers: a subscription
  // enters sub_owner_ on this thread before any wake pass can drain an
  // event for it.
  service_.poll_events(
      [this](const shard::ShardedMonitorService::StatusEvent& e) { deliver(e); });
  refresh_obs();
}

void FdaasServer::drain_commands() {
  Command cmd;
  while (commands_.try_pop(cmd)) {
    cmd();
    cmd = nullptr;
  }
  if (stop_requested_.load(std::memory_order_acquire)) loop_->stop();
}

void FdaasServer::post(Command cmd) {
  // Bounded backoff ladder (mirrors ShardedMonitorService::post): a
  // wedged API thread must not livelock its callers.
  constexpr int kYieldRounds = 64;
  constexpr int kSleepRounds = 200;  // 200 x 1 ms ≈ 200 ms worst case
  for (int attempt = 0;; ++attempt) {
    if (commands_.try_push(std::move(cmd))) break;
    post_retries_.fetch_add(1, std::memory_order_relaxed);
    if (attempt >= kYieldRounds + kSleepRounds) {
      post_stalls_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("fdaas: command queue wedged, post abandoned");
    }
    loop_->wake();
    if (attempt < kYieldRounds) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  loop_->wake();
}

void FdaasServer::arm_fed_flush_timer() {
  // Half the adapter's flush interval: the core's own due() gate keeps
  // the actual emission cadence at flush_interval, while the finer
  // timer bounds the alignment slack, so worst-case digest latency
  // stays within the 2 x flush_interval budget the T_D^U check charges.
  const Tick period =
      std::max<Tick>(adapter_->flush_interval() / 2, ticks_from_ms(1));
  fed_flush_timer_ = loop_->schedule_at(loop_->now() + period, [this] {
    auto frames = adapter_->flush(loop_->now());
    if (!frames.empty()) {
      stats_.digest_frames_flushed += frames.size();
      if (upstream_sink_) upstream_sink_(std::move(frames));
    }
    refresh_obs();
    arm_fed_flush_timer();
  });
}

void FdaasServer::arm_lease_timer() {
  const Tick period = std::max<Tick>(params_.lease / 4, ticks_from_ms(20));
  lease_timer_ = loop_->schedule_at(loop_->now() + period, [this] {
    expire_leases();
    sweep_orphans();
    refresh_obs();
    arm_lease_timer();
  });
}

// --- Crash persistence ------------------------------------------------------

void FdaasServer::arm_snapshot_timer() {
  snapshot_timer_ =
      loop_->schedule_at(loop_->now() + params_.snapshot_interval, [this] {
        save_snapshot();
        refresh_obs();
        arm_snapshot_timer();
      });
}

void FdaasServer::restore_from_snapshot() {
  const SnapshotLoadResult loaded = load_snapshot_file(params_.snapshot_path);
  snapshot_load_status_ = loaded.status;
  if (!loaded.ok()) return;  // missing/skewed/corrupt: clean cold start

  const std::int64_t wall = wall_now_ns();
  const Tick steady_now = SteadyClock{}.now();
  const Tick expires = steady_now + params_.orphan_ttl;
  for (const SnapshotData::Seed& seed : loaded.data.seeds) {
    shard::ShardedMonitorService::SubscriptionSeed s;
    s.peer = seed.peer;
    s.sender_id = seed.sender_id;
    s.app = seed.app;
    s.qos = seed.qos;
    s.last = seed.last;
    s.since = rebase_seed_since(seed.age_ns, loaded.data.saved_wall_ns, wall,
                                steady_now);
    std::uint64_t gid = 0;
    try {
      gid = service_.import_seed(s);
    } catch (...) {
      continue;  // infeasible under today's network estimate: drop the seed
    }
    const OrphanKey key{s.peer.ip_host_order, s.peer.port, s.sender_id, s.app};
    orphans_[gid] = Orphan{gid, std::move(s), expires};
    orphan_index_[key] = gid;
    ++stats_.snapshot_restored_subs;
  }
  for (const std::uint64_t node : loaded.data.fed_children) {
    restored_fed_children_.insert(node);
  }
}

bool FdaasServer::save_snapshot() {
  if (!persistence_enabled()) return false;
  SnapshotData data;
  data.saved_wall_ns = wall_now_ns();
  const Tick steady_now = loop_->now();
  const auto seeds = service_.export_seeds();
  data.seeds.reserve(seeds.size());
  for (const auto& seed : seeds) {
    SnapshotData::Seed s;
    s.peer = seed.peer;
    s.sender_id = seed.sender_id;
    s.app = seed.app;
    s.qos = seed.qos;
    s.last = seed.last;
    s.age_ns = seed.since == 0 ? -1 : std::max<Tick>(0, steady_now - seed.since);
    data.seeds.push_back(std::move(s));
  }
  for (const auto& [node, sid] : child_sessions_) data.fed_children.push_back(node);
  // Restored children that have not redialled yet stay persisted: a
  // crash during *their* outage must not forget them.
  for (const std::uint64_t node : restored_fed_children_) {
    if (child_sessions_.find(node) == child_sessions_.end()) {
      data.fed_children.push_back(node);
    }
  }
  const std::vector<std::byte> bytes = encode_snapshot(data);
  if (!save_snapshot_bytes(params_.snapshot_path, bytes)) {
    ++stats_.snapshot_save_failures;
    return false;
  }
  ++stats_.snapshot_saves;
  last_save_wall_ns_ = data.saved_wall_ns;
  last_save_bytes_ = bytes.size();
  return true;
}

bool FdaasServer::save_snapshot_now() {
  if (!persistence_enabled()) return false;
  if (!running_) return save_snapshot();
  bool ok = false;
  run_on_api_thread([this, &ok] { ok = save_snapshot(); });
  return ok;
}

void FdaasServer::drop_orphan(std::map<std::uint64_t, Orphan>::iterator it,
                              bool unsubscribe) {
  const Orphan& o = it->second;
  orphan_index_.erase(OrphanKey{o.seed.peer.ip_host_order, o.seed.peer.port,
                               o.seed.sender_id, o.seed.app});
  if (unsubscribe && service_.running()) {
    try {
      service_.unsubscribe(o.gid);
    } catch (...) {
      // Service raced into shutdown; its own stop() discards state.
    }
  }
  orphans_.erase(it);
}

void FdaasServer::sweep_orphans() {
  if (orphans_.empty()) return;
  const Tick now = loop_->now();
  for (auto it = orphans_.begin(); it != orphans_.end();) {
    if (it->second.expires <= now) {
      auto doomed = it++;
      drop_orphan(doomed, /*unsubscribe=*/true);
      ++stats_.orphans_expired;
    } else {
      ++it;
    }
  }
}

std::uint64_t FdaasServer::try_claim_orphan(const SubscribeRequest& sub) {
  const auto idx = orphan_index_.find(
      OrphanKey{sub.peer.ip_host_order, sub.peer.port, sub.sender_id, sub.app});
  if (idx == orphan_index_.end()) return 0;
  const auto it = orphans_.find(idx->second);
  TWFD_CHECK(it != orphans_.end());
  const Orphan& orphan = it->second;

  // The orphan's current view verdict — primed at restore, possibly
  // flipped since by a live transition — is the client's starting point.
  const auto current = service_.verdict(orphan.gid).value_or(
      shard::ShardedMonitorService::Verdict{orphan.seed.last, orphan.seed.since});

  // Create the client's subscription FIRST (under the client's QoS,
  // which may differ from the persisted tuple), then retire the orphan:
  // the peer's remote keeps at least one subscriber throughout, so its
  // warm arrival estimation is never evicted. Throws (infeasible QoS)
  // propagate to the caller's error path with the orphan intact.
  const std::uint64_t id =
      service_.subscribe(sub.peer, sub.sender_id, sub.app, sub.qos, current);
  if (current.output != orphan.seed.last) ++stats_.snapshot_replayed_transitions;
  drop_orphan(it, /*unsubscribe=*/true);
  ++stats_.orphans_claimed;
  return id;
}

void FdaasServer::on_accept() {
  while (auto accepted = listener_.accept()) {
    if (sessions_.size() >= params_.max_sessions) {
      ++stats_.sessions_rejected;
      ::close(accepted->fd);
      continue;
    }
    auto session = std::make_unique<Session>();
    session->id = next_session_id_++;
    session->conn = net::TcpConn(accepted->fd);
    session->peer = accepted->peer;
    session->lease_deadline = loop_->now() + params_.lease;
    if (params_.conn_sndbuf_bytes > 0) {
      session->conn.set_send_buffer(params_.conn_sndbuf_bytes);
    }
    const std::uint64_t sid = session->id;
    loop_->watch_fd(session->conn.fd(), net::kFdRead,
                    [this, sid](unsigned events) { on_session_io(sid, events); });
    sessions_.emplace(sid, std::move(session));
    ++stats_.sessions_accepted;
  }
  // Descriptor exhaustion: the pending connection stays in the backlog
  // and poll() would report the listener readable in a tight loop. Park
  // accept interest and retry after a delay, like UdpSocket's soft-send
  // accounting this is counted, never thrown.
  const std::uint64_t failures = listener_.resource_failures();
  if (failures > seen_resource_failures_ && !accept_parked_) {
    seen_resource_failures_ = failures;
    accept_parked_ = true;
    loop_->update_fd(listener_.fd(), 0);
    loop_->schedule_at(loop_->now() + params_.accept_retry_delay, [this] {
      accept_parked_ = false;
      loop_->update_fd(listener_.fd(), net::kFdRead);
    });
  }
  refresh_obs();
}

void FdaasServer::on_session_io(std::uint64_t sid, unsigned events) {
  bool open = true;
  if (events & net::kFdWrite) {
    const auto it = sessions_.find(sid);
    open = it != sessions_.end() && flush(*it->second);  // false: closed
  }
  if (open && (events & net::kFdRead)) on_readable(sid);
  refresh_obs();
}

void FdaasServer::on_readable(std::uint64_t sid) {
  std::byte buf[4096];
  for (;;) {
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    Session& s = *it->second;

    const auto r = s.conn.read_some(buf);
    if (r.status == net::TcpConn::IoStatus::kWouldBlock) return;
    if (r.status == net::TcpConn::IoStatus::kClosed) {
      ++stats_.disconnects;
      close_session(sid);
      return;
    }
    stats_.bytes_received += r.bytes;
    s.rx.push(std::span<const std::byte>(buf, r.bytes));

    for (;;) {
      auto body = s.rx.next();
      if (!body) break;
      ++stats_.frames_received;
      auto msg = decode_body(*body);
      if (!msg) {
        ++stats_.frames_malformed;
        close_session(sid);
        return;
      }
      s.lease_deadline = loop_->now() + params_.lease;
      if (!handle_message(sid, std::move(*msg))) return;
      // handle_message may have flushed; the session object is stable
      // (node-based map) but re-check existence on the next iteration.
      if (sessions_.find(sid) == sessions_.end()) return;
    }
    if (s.rx.corrupt()) {
      ++stats_.frames_malformed;
      close_session(sid);
      return;
    }
  }
}

bool FdaasServer::handle_message(std::uint64_t sid, ControlMessage msg) {
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return false;
  Session& s = *it->second;

  if (auto* sub = std::get_if<SubscribeRequest>(&msg)) {
    if (s.subs.size() + s.fed_subs.size() >=
        params_.max_subscriptions_per_session) {
      return send_frame(s, ErrorMsg{sub->request_id, ErrorCode::kLimit,
                                    "subscription limit reached"});
    }
    if (is_fed_subscribe(*sub)) return handle_fed_subscribe(s, *sub);
    std::uint64_t id = 0;
    try {
      // A restored orphan with this exact identity hands over its warm,
      // verdict-primed detector; otherwise this is a cold subscribe.
      id = try_claim_orphan(*sub);
      if (id == 0) {
        id = service_.subscribe(sub->peer, sub->sender_id, sub->app, sub->qos);
      }
    } catch (const std::logic_error& e) {
      return send_frame(
          s, ErrorMsg{sub->request_id, ErrorCode::kInfeasibleQos, e.what()});
    } catch (...) {
      return send_frame(s, ErrorMsg{sub->request_id, ErrorCode::kInternal,
                                    "subscribe failed"});
    }
    s.subs.insert(id);
    sub_owner_[id] = sid;
    ++stats_.subscriptions_total;
    return send_frame(s, SubscribeOk{sub->request_id, id});
  }

  if (auto* unsub = std::get_if<UnsubscribeRequest>(&msg)) {
    if ((unsub->subscription_id & kFedSubBit) != 0) {
      if (s.fed_subs.erase(unsub->subscription_id) == 0) {
        return send_frame(
            s, ErrorMsg{unsub->request_id, ErrorCode::kUnknownSubscription,
                        "not a subscription of this session"});
      }
      const auto fed = fed_subs_.find(unsub->subscription_id);
      if (fed != fed_subs_.end()) {
        auto by_key = fed_subs_by_key_.find(fed->second.key);
        if (by_key != fed_subs_by_key_.end()) {
          by_key->second.erase(unsub->subscription_id);
          if (by_key->second.empty()) fed_subs_by_key_.erase(by_key);
        }
        fed_subs_.erase(fed);
      }
      return send_frame(s, UnsubscribeOk{unsub->request_id});
    }
    if (s.subs.erase(unsub->subscription_id) == 0) {
      return send_frame(s,
                        ErrorMsg{unsub->request_id, ErrorCode::kUnknownSubscription,
                                 "not a subscription of this session"});
    }
    sub_owner_.erase(unsub->subscription_id);
    service_.unsubscribe(unsub->subscription_id);
    return send_frame(s, UnsubscribeOk{unsub->request_id});
  }

  if (auto* snap = std::get_if<SnapshotRequest>(&msg)) {
    SnapshotReply reply{snap->request_id, {}};
    for (const std::uint64_t id : s.subs) {
      if (reply.entries.size() >= kMaxSnapshotEntries) break;
      if (const auto v = service_.verdict(id)) {
        reply.entries.push_back({id, v->output, v->since});
      }
    }
    // Federated subscriptions answer from the adapter's liveness table;
    // a peer with no known state yet defaults to Trust-since-never,
    // matching a local detector that has not transitioned.
    for (const std::uint64_t fid : s.fed_subs) {
      if (reply.entries.size() >= kMaxSnapshotEntries) break;
      const auto fed = fed_subs_.find(fid);
      if (fed == fed_subs_.end()) continue;
      const auto state = adapter_->peer_state(fed->second.key);
      if (state.has_value()) {
        reply.entries.push_back({fid, state->output, state->when});
      } else {
        reply.entries.push_back({fid, detect::Output::Trust, 0});
      }
    }
    return send_frame(s, reply);
  }

  if (auto* digest = std::get_if<DigestMsg>(&msg)) {
    return handle_digest(s, *digest);
  }

  if (auto* ping = std::get_if<PingMsg>(&msg)) {
    return send_frame(
        s, PongMsg{ping->nonce,
                   static_cast<std::uint64_t>(params_.lease / ticks_from_ms(1))});
  }

  // Server-bound streams must only carry the request types (plus child
  // Digest pushes, handled above); a client echoing server frames is
  // broken or hostile.
  ++stats_.frames_malformed;
  close_session(sid);
  return false;
}

bool FdaasServer::is_fed_subscribe(const SubscribeRequest& sub) const {
  // A zero peer address can never name a monitorable process; with a
  // federation core attached it addresses the federated peer whose
  // 64-bit key rides in sender_id.
  return adapter_ != nullptr && sub.peer.ip_host_order == 0 &&
         sub.peer.port == 0;
}

bool FdaasServer::handle_fed_subscribe(Session& s, const SubscribeRequest& sub) {
  // The subscriber's detection-latency budget must absorb the digest
  // pipeline: each federation level adds up to ~2 x flush_interval
  // (flush alignment + push). One level is the floor we can check here.
  const Tick budget = static_cast<Tick>(sub.qos.td_upper_s * 1e9);
  if (budget <= 2 * adapter_->flush_interval()) {
    return send_frame(
        s, ErrorMsg{sub.request_id, ErrorCode::kInfeasibleQos,
                    "TD upper bound inside the digest flush latency budget"});
  }
  const std::uint64_t key = sub.sender_id;
  const std::uint64_t id = kFedSubBit | next_fed_sub_++;
  s.fed_subs.insert(id);
  fed_subs_.emplace(id, FedSub{s.id, key});
  fed_subs_by_key_[key].insert(id);
  ++stats_.subscriptions_total;
  if (!send_frame(s, SubscribeOk{sub.request_id, id})) return false;
  // Prime the subscriber with the current verdict when one is known, so
  // a peer that went Suspect before the subscribe still surfaces.
  if (const auto state = adapter_->peer_state(key); state.has_value()) {
    if (!send_frame(s, EventMsg{id, state->output, state->when})) return false;
    ++stats_.events_pushed;
    ++stats_.fed_events_pushed;
  }
  return true;
}

bool FdaasServer::handle_digest(Session& s, const DigestMsg& digest) {
  if (adapter_ == nullptr) {
    // Not a federation node: a Digest here is as hostile as any other
    // server-typed frame on a server-bound stream.
    ++stats_.frames_malformed;
    close_session(s.id);
    return false;
  }
  // First Digest identifies the child; the latest session claiming a
  // node id wins (a restarted child redials before its old session
  // expires, and Delegate frames must reach the live connection).
  s.fed_node_id = digest.node_id;
  child_sessions_[digest.node_id] = s.id;
  // A child the loaded snapshot knew about is back: cue the owner to
  // re-send its Delegate, restoring the delegation the crash wiped.
  if (restored_fed_children_.erase(digest.node_id) > 0) {
    ++stats_.fed_children_restored;
    if (child_reattach_hook_) child_reattach_hook_(digest.node_id);
  }
  const auto result = adapter_->ingest_digest(digest.node_id, digest);
  ++stats_.digests_ingested;
  stats_.digest_entries_applied += result.applied;
  stats_.digest_entries_stale += result.stale;
  stats_.digest_entries_foreign += result.foreign;
  return true;
}

void FdaasServer::fed_fanout(const DigestEntry& entry) {
  const auto by_key = fed_subs_by_key_.find(entry.peer_key);
  if (by_key == fed_subs_by_key_.end()) return;
  // Snapshot the ids: send_frame can evict a slow session, which
  // mutates fed_subs_by_key_ through close_session.
  std::vector<std::uint64_t> ids(by_key->second.begin(), by_key->second.end());
  for (const std::uint64_t fid : ids) {
    const auto fed = fed_subs_.find(fid);
    if (fed == fed_subs_.end()) continue;
    const auto it = sessions_.find(fed->second.sid);
    if (it == sessions_.end()) continue;
    if (send_frame(*it->second, EventMsg{fid, entry.output, entry.when})) {
      ++stats_.events_pushed;
      ++stats_.fed_events_pushed;
    }
  }
}

void FdaasServer::deliver(const shard::ShardedMonitorService::StatusEvent& event) {
  if (obs_event_latency_ != nullptr && event.when > 0) {
    const Tick lag = loop_->now() - event.when;
    obs_event_latency_->observe(lag > 0 ? to_seconds(lag) : 0.0);
  }
  if (event.subscription == shard::ShardedMonitorService::kHealthSubscription) {
    // Shard health transitions (degraded/recovered) are session-agnostic:
    // fan them out to every session. Session ids are snapshotted first
    // because send_frame may evict a slow client and mutate sessions_.
    std::vector<std::uint64_t> ids;
    ids.reserve(sessions_.size());
    for (const auto& [sid, s] : sessions_) ids.push_back(sid);
    for (const std::uint64_t sid : ids) {
      const auto it = sessions_.find(sid);
      if (it == sessions_.end()) continue;
      if (send_frame(*it->second,
                     EventMsg{event.subscription, event.output, event.when})) {
        ++stats_.events_pushed;
        ++stats_.health_broadcasts;
      }
    }
    return;
  }
  const auto owner = sub_owner_.find(event.subscription);
  if (owner == sub_owner_.end()) {
    // Orphans are server-owned by design: their transitions update the
    // view (where a claiming client will read them), they are not lost
    // deliveries.
    if (orphans_.find(event.subscription) == orphans_.end()) {
      ++stats_.events_unroutable;
    }
    return;
  }
  const auto it = sessions_.find(owner->second);
  if (it == sessions_.end()) {
    ++stats_.events_unroutable;
    return;
  }
  if (send_frame(*it->second,
                 EventMsg{event.subscription, event.output, event.when})) {
    ++stats_.events_pushed;
  }
}

bool FdaasServer::send_frame(Session& s, const ControlMessage& msg) {
  const std::vector<std::byte> frame = encode_frame(msg);
  const std::size_t pending = s.tx.size() - s.tx_pos;
  if (pending + frame.size() > params_.max_send_queue_bytes) {
    // Slow client: its backlog would exceed the cap. Evict — the shards
    // and every healthy session keep their cadence.
    ++stats_.slow_evictions;
    close_session(s.id);
    return false;
  }
  s.tx.insert(s.tx.end(), frame.begin(), frame.end());
  return flush(s);
}

bool FdaasServer::flush(Session& s) {
  while (s.tx_pos < s.tx.size()) {
    const auto w = s.conn.write_some(
        std::span<const std::byte>(s.tx.data() + s.tx_pos, s.tx.size() - s.tx_pos));
    if (w.status == net::TcpConn::IoStatus::kClosed) {
      ++stats_.disconnects;
      close_session(s.id);
      return false;
    }
    if (w.status == net::TcpConn::IoStatus::kWouldBlock) break;
    stats_.bytes_sent += w.bytes;
    s.tx_pos += w.bytes;
  }
  if (s.tx_pos >= s.tx.size()) {
    s.tx.clear();
    s.tx_pos = 0;
    if (s.want_write) {
      s.want_write = false;
      loop_->update_fd(s.conn.fd(), net::kFdRead);
    }
  } else {
    if (s.tx_pos > 4096 && s.tx_pos * 2 >= s.tx.size()) {
      s.tx.erase(s.tx.begin(), s.tx.begin() + s.tx_pos);
      s.tx_pos = 0;
    }
    if (!s.want_write) {
      s.want_write = true;
      loop_->update_fd(s.conn.fd(), net::kFdRead | net::kFdWrite);
    }
  }
  return true;
}

void FdaasServer::close_session(std::uint64_t sid) {
  const auto it = sessions_.find(sid);
  if (it == sessions_.end()) return;
  Session& s = *it->second;
  loop_->unwatch_fd(s.conn.fd());
  for (const std::uint64_t sub : s.subs) {
    sub_owner_.erase(sub);
    if (service_.running()) {
      try {
        service_.unsubscribe(sub);
      } catch (...) {
        // Service raced into shutdown; its own stop() discards state.
      }
    }
  }
  for (const std::uint64_t fid : s.fed_subs) {
    const auto fed = fed_subs_.find(fid);
    if (fed == fed_subs_.end()) continue;
    auto by_key = fed_subs_by_key_.find(fed->second.key);
    if (by_key != fed_subs_by_key_.end()) {
      by_key->second.erase(fid);
      if (by_key->second.empty()) fed_subs_by_key_.erase(by_key);
    }
    fed_subs_.erase(fed);
  }
  if (s.fed_node_id != 0) {
    // Only drop the child binding if this session still holds it — a
    // restarted child may have re-registered on a fresh session already.
    const auto child = child_sessions_.find(s.fed_node_id);
    if (child != child_sessions_.end() && child->second == sid) {
      child_sessions_.erase(child);
    }
  }
  stats_.conn_soft_errors += s.conn.soft_errors();
  s.conn.close();
  sessions_.erase(it);
}

void FdaasServer::expire_leases() {
  const Tick now = loop_->now();
  std::vector<std::uint64_t> expired;
  for (const auto& [sid, s] : sessions_) {
    if (s->lease_deadline <= now) expired.push_back(sid);
  }
  for (const std::uint64_t sid : expired) {
    ++stats_.lease_expiries;
    close_session(sid);
  }
}

FdaasServer::Stats FdaasServer::collect_stats() {
  Stats out = stats_;
  out.sessions_active = sessions_.size();
  out.subscriptions_active = sub_owner_.size();
  out.fed_subscriptions_active = fed_subs_.size();
  out.accept_resource_failures = listener_.resource_failures();
  out.accept_aborted = listener_.aborted_accepts();
  out.post_retries = post_retries_.load(std::memory_order_relaxed);
  out.post_stalls = post_stalls_.load(std::memory_order_relaxed);
  out.orphans_active = orphans_.size();
  out.snapshot_bytes = last_save_bytes_;
  if (last_save_wall_ns_ > 0) {
    out.snapshot_age_ns = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, wall_now_ns() - last_save_wall_ns_));
  }
  return out;
}

FdaasServer::Stats FdaasServer::stats() {
  if (!running_) return collect_stats();
  auto prom = std::make_shared<std::promise<Stats>>();
  auto fut = prom->get_future();
  post([this, prom] { prom->set_value(collect_stats()); });
  return fut.get();
}

void FdaasServer::inject_events(
    std::vector<shard::ShardedMonitorService::StatusEvent> events) {
  TWFD_CHECK_MSG(running_, "inject_events() requires a started server");
  auto prom = std::make_shared<std::promise<void>>();
  auto fut = prom->get_future();
  post([this, evs = std::move(events), prom] {
    for (const auto& e : evs) deliver(e);
    prom->set_value();
  });
  fut.get();
}

}  // namespace twfd::api
