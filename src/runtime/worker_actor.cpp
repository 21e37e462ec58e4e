#include "runtime/worker_actor.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace phish::rt {

WorkerActor::WorkerActor(net::Channel& channel, net::TimerService& timers,
                         const TaskRegistry& registry,
                         std::vector<net::NodeId> clearinghouse,
                         const WorkerParams& params, std::uint64_t seed,
                         ExecOrder exec_order, StealOrder steal_order)
    : me_(channel.id()),
      core_(me_, registry,
            [this] {
              WorkerCore::Hooks hooks;
              hooks.send_remote = [this](const ContRef& cont, Value value) {
                Bytes payload =
                    proto::ArgumentMsg{cont, std::move(value)}.encode();
                charge_send(payload.size());
                post([this, home = cont.home, p = std::move(payload)]() {
                  if (client_.is_replica(home)) {
                    // The job result must survive loss and coordinator
                    // failover: deliver via RPC through the replica ring,
                    // which retransmits until acknowledged.
                    client_.call(proto::kRpcResult, p, [](net::RpcResult) {},
                                 params_.rpc_policy);
                  } else {
                    rpc_.send_oneway(home, proto::kArgument, p);
                  }
                });
              };
              hooks.forward_local_miss = [this](const ContRef& cont,
                                                Value&& value) {
                // A locally-homed fill whose target closure left with a
                // previous life's migrated cargo (owner reclaim, then this
                // incarnation rejoined) must chase it through the same
                // forwarding stub remote arrivals use; mid-drain it buffers
                // in the fill log until the successor confirms.
                if (state_ != State::kDeparting && !forward_to_.valid()) {
                  return false;
                }
                post([this, arg = proto::ArgumentMsg{cont, std::move(value)}]()
                         mutable { log_and_forward_fill(std::move(arg)); });
                return true;
              };
              hooks.emit_io = [this](const std::string& text) {
                post([this, text] { emit_io(text); });
              };
              return hooks;
            }(),
            exec_order, steal_order),
      rpc_(channel, timers),
      channel_(channel),
      clearinghouse_(clearinghouse.front()),
      params_(params),
      rng_(mix64(seed ^ me_.value)),
      client_(rpc_, std::move(clearinghouse)) {
  rpc_.set_jitter_seed(mix64(seed ^ 0x6a77'7e12'0badULL ^ me_.value));
  rpc_.set_oneway_handler(
      entry([this](net::Message&& m) { handle_oneway(std::move(m)); }));
  rpc_.serve(proto::kRpcSteal, entry([this](net::NodeId, const Bytes& args) {
               return serve_steal(args);
             }));
  rpc_.serve(proto::kRpcControl,
             entry([this](net::NodeId, const Bytes& args) {
               return handle_control(args);
             }));
  rpc_.serve(proto::kRpcMigrate,
             entry([this](net::NodeId, const Bytes& args) {
               return serve_migrate(args);
             }));
  // A victim that serves a steal after the thief's retry budget ran out
  // records the theft in its ledger and sends the closures anyway; the thief
  // is alive, so no redo will ever run them.  Adopt them instead.
  rpc_.set_late_reply_handler(
      proto::kRpcSteal, entry([this](net::NodeId, Bytes bytes) {
        auto reply = proto::StealReply::decode(bytes);
        if (reply) adopt(std::move(reply->tasks), /*stolen=*/true);
      }));
}

WorkerActor::~WorkerActor() { close(); }

void WorkerActor::close() {
  {
    const auto lock = enter();
    if (closed_) return;
    closed_ = true;
    stop_timers();
  }
  rpc_.close();
}

void WorkerActor::start() {
  const auto lock = enter();
  register_now();
}

void WorkerActor::register_now() {
  if (state_ != State::kCreated) return;
  state_ = State::kRegistering;
  start_time_ = rpc_.now_ns();
  client_.call(
      proto::kRpcRegister,
      proto::RegisterMsg{incarnation_, known_epoch_}.encode(),
      entry([this, inc = incarnation_,
             since = known_epoch_](net::RpcResult result) {
        if (incarnation_ != inc) return;  // callback from a past life
        if (state_ != State::kRegistering) return;
        if (!result.ok) {
          // Exponential backoff with seeded jitter: a rack coming back to
          // life must not re-register in lockstep (register storm).
          register_backoff_ =
              register_backoff_ == 0
                  ? params_.register_backoff
                  : std::min(register_backoff_ * 2,
                             params_.register_backoff_max);
          const std::uint64_t jitter = rng_.below(register_backoff_ / 2 + 1);
          PHISH_LOG(kWarn) << net::to_string(me_)
                           << ": registration failed; retrying in "
                           << (register_backoff_ + jitter) / 1'000'000
                           << " ms";
          state_ = State::kCreated;
          rpc_.schedule(register_backoff_ + jitter,
                           entry([this] { register_now(); }));
          return;
        }
        register_backoff_ = 0;
        if (!apply_membership(since, result.reply)) return;
        state_ = State::kActive;
        activate();
      }),
      params_.rpc_policy);
}

bool WorkerActor::apply_membership(std::uint64_t since, const Bytes& reply) {
  const auto set_peers = [this](const std::vector<net::NodeId>& all) {
    peers_.clear();
    for (net::NodeId p : all) {
      if (p != me_) peers_.push_back(p);
    }
  };
  // The reply format follows what we presented: a nonzero known epoch opted
  // into a delta, first contact gets the full snapshot.
  if (since == 0) {
    auto membership = proto::Membership::decode(reply);
    if (!membership) return false;
    known_epoch_ = membership->epoch;
    set_peers(membership->participants);
    return true;
  }
  auto update = proto::MembershipUpdate::decode(reply);
  if (!update) return false;
  known_epoch_ = update->epoch;
  if (update->full) {
    set_peers(update->participants);
    return true;
  }
  for (net::NodeId gone : update->left) {
    peers_.erase(std::remove(peers_.begin(), peers_.end(), gone),
                 peers_.end());
  }
  for (net::NodeId p : update->joined) {
    if (p != me_ &&
        std::find(peers_.begin(), peers_.end(), p) == peers_.end()) {
      peers_.push_back(p);
    }
  }
  return true;
}

void WorkerActor::activate() {
  // A zero period disables the timer (e.g. measurement runs that model the
  // paper's Phish, which had no heartbeats).
  if (params_.heartbeat_period > 0) {
    arm(heartbeat_timer_, 1, params_.heartbeat_period,
        // Every replica hears heartbeats, so a promoted standby starts with
        // a warm liveness map.
        [this] { client_.send_oneway_all(proto::kHeartbeat, {}); });
  }
  if (params_.update_period > 0) {
    arm(update_timer_, params_.update_period, params_.update_period,
        [this] { refresh_membership(); });
  }
  if (root_) {
    core_.spawn(root_->first, std::move(root_->second),
                clearinghouse_continuation(clearinghouse_), 0);
    root_.reset();
  }
  if (restore_state_) {
    core_.import_state(*restore_state_);
    restore_state_.reset();
  }
  wake(0);
}

void WorkerActor::arm(net::TimerToken& token, std::uint64_t delay,
                      std::uint64_t period, std::function<void()> tick) {
  token = rpc_.schedule(
      delay, entry([this, &token, period, tick = std::move(tick),
                    gen = timer_gen_]() mutable {
        token = {};
        if (gen != timer_gen_) return;
        tick();
        arm(token, period, period, std::move(tick));
      }));
}

void WorkerActor::stop_timers() {
  ++timer_gen_;
  if (heartbeat_timer_.valid()) rpc_.cancel(heartbeat_timer_);
  if (update_timer_.valid()) rpc_.cancel(update_timer_);
  heartbeat_timer_ = {};
  update_timer_ = {};
}

PoppedTask WorkerActor::next_task() {
  if (state_ != State::kActive) return {};
  PoppedTask task = core_.pop_for_execution();
  if (task) consecutive_failed_steals_ = 0;
  return task;
}

void WorkerActor::idle() {
  if (state_ != State::kActive || steal_in_flight_) return;
  std::optional<net::NodeId> victim = pick_victim();
  if (!victim) {
    // Nobody to steal from yet; refresh membership and retry.
    ++consecutive_failed_steals_;
    core_.note_steal_request_sent();
    core_.note_steal_failed();
    if (consecutive_failed_steals_ >= params_.max_failed_steals) {
      depart(DepartReason::kParallelismShrank);
      return;
    }
    refresh_membership();
    wake(params_.steal_retry_delay);
    return;
  }
  steal_in_flight_ = true;
  steal_sent_at_ = rpc_.now_ns();
  core_.note_steal_request_sent();
  const auto max_tasks = static_cast<std::uint16_t>(
      params_.steal_batch < 1 ? 1 : params_.steal_batch);
  const Bytes payload = proto::StealRequest{me_, max_tasks}.encode();
  charge_send(payload.size());
  rpc_.call(*victim, proto::kRpcSteal, payload,
            entry([this, inc = incarnation_](net::RpcResult result) {
              on_steal_reply(inc, std::move(result));
            }),
            params_.rpc_policy);
}

void WorkerActor::on_steal_reply(std::uint32_t inc, net::RpcResult result) {
  auto reply = result.ok ? proto::StealReply::decode(result.reply)
                         : std::nullopt;
  if (incarnation_ != inc) {
    // A past life's steal: the victim ledgered it against a thief that is
    // alive again, so no redo need ever run it.
    if (reply) adopt(std::move(reply->tasks), /*stolen=*/true);
    return;
  }
  steal_in_flight_ = false;
  if (state_ != State::kActive) return;
  charge_recv();

  const bool got_task = reply && !reply->tasks.empty();
  if (got_task) {
    for (Closure& c : reply->tasks) core_.install_stolen(std::move(c));
    steal_latency_.observe(rpc_.now_ns() - steal_sent_at_);
    if (tracker_ != nullptr) tracker_->note_steal(rpc_.now_ns());
  } else if (!result.ok) {
    // Victim unreachable — it may be gone; refresh our view.
    refresh_membership();
  }

  if (pending_evict_) {
    // The deferred eviction (owner reclaim or preemption) fires now; any
    // closure installed above migrates out through the departure path.
    const DepartReason reason = *pending_evict_;
    pending_evict_.reset();
    depart(reason);
    return;
  }
  if (got_task) {
    consecutive_failed_steals_ = 0;
    wake(0);
    return;
  }
  core_.note_steal_failed();
  if (++consecutive_failed_steals_ >= params_.max_failed_steals) {
    depart(DepartReason::kParallelismShrank);
    return;
  }
  // A stale membership view can hide the participants that actually have
  // work (e.g. one that registered after our snapshot); refresh it every few
  // consecutive failures rather than waiting out the full update period.
  if (consecutive_failed_steals_ % 8 == 0) refresh_membership();
  wake(params_.steal_retry_delay);
}

void WorkerActor::adopt(std::vector<Closure> closures, bool stolen) {
  if (closures.empty()) return;
  switch (state_) {
    case State::kDeparted:
      // A stub: the closures follow the cargo to its holder, as post-drain
      // fills do.  With no successor the departure was a noisy one: the
      // failure detector declares us dead and the redo path covers them.
      if (forward_to_.valid()) {
        proto::MigrateMsg msg;
        msg.from = me_;
        msg.closures = std::move(closures);
        rpc_.send_oneway(forward_to_, proto::kMigrate, msg.encode());
      }
      return;
    case State::kFinished:
    case State::kDead:
      return;
    default:
      // Everyone else installs.  A running worker runs them; a departing
      // one ships them with its next drain round; a registering one (a
      // later incarnation) runs them once active — after a graceful
      // departure nothing else would, and after a crash the victim may
      // also redo them, which duplicate fills absorb.
      charge_recv();
      for (Closure& c : closures) {
        if (stolen) {
          core_.install_stolen(std::move(c));
        } else {
          core_.install_migrated(std::move(c));
        }
      }
      wake(0);
  }
}

Bytes WorkerActor::serve_steal(const Bytes& args) {
  auto request = proto::StealRequest::decode(args);
  proto::StealReply reply;
  // Only an active worker gives work away: a departing one is draining
  // everything it holds into the migration cargo, and a steal racing the
  // drain would fork ownership.
  if (request && state_ == State::kActive) {
    reply.tasks = core_.try_steal_batch(request->thief, request->max_tasks);
  }
  Bytes encoded = reply.encode();
  // Victim pays for receiving the request and sending the reply.
  charge_recv();
  charge_send(encoded.size());
  return encoded;
}

void WorkerActor::handle_oneway(net::Message&& message) {
  switch (message.type) {
    case proto::kArgument: {
      auto arg = proto::ArgumentMsg::decode(message.payload);
      if (!arg) return;
      if (state_ == State::kDeparted) {
        // Forwarding stub: our closures moved.  Log the fill (a later
        // kReroute must be able to replay it at a redelivered holder) and
        // pass it along.
        if (forward_to_.valid()) log_and_forward_fill(std::move(*arg));
        return;
      }
      if (terminated()) return;
      charge_recv();
      // Only a departing worker or a residual stub may need the value again
      // (to forward); everyone else moves it straight into the closure.
      const bool may_forward =
          state_ == State::kDeparting || forward_to_.valid();
      const auto outcome =
          may_forward ? core_.deliver_remote(arg->cont.target, arg->cont.slot,
                                             arg->value)
                      : core_.deliver_remote(arg->cont.target, arg->cont.slot,
                                             std::move(arg->value));
      if (outcome == WorkerCore::Deliver::kBecameReady &&
          state_ == State::kActive) {
        wake(0);
      }
      if (outcome == WorkerCore::Deliver::kUnknown && may_forward) {
        // Post-drain fill (the target left with the departing cargo; it
        // buffers until the successor confirms) or residual-stub fill (the
        // target left with a previous life's cargo): keep forwarding.
        log_and_forward_fill(std::move(*arg));
      }
      break;
    }
    case proto::kShutdown:
      finish_job();
      break;
    case proto::kMigrate: {
      auto migrate = proto::MigrateMsg::decode(message.payload);
      if (migrate) adopt(std::move(migrate->closures), /*stolen=*/false);
      break;
    }
    default:
      PHISH_LOG(kDebug) << net::to_string(me_) << ": unexpected message type "
                        << message.type;
  }
}

Bytes WorkerActor::handle_control(const Bytes& args) {
  // Acked control plane (death notices, new-primary announcements).  The
  // RPC reply is the ack; an empty body is all the caller needs.
  auto msg = proto::ControlMsg::decode(args);
  if (!msg) return {};
  switch (msg->kind) {
    case proto::ControlMsg::kDeadNotice:
      apply_death(msg->who);
      break;
    case proto::ControlMsg::kNewPrimary:
      client_.adopt(msg->who, msg->view);
      break;
    case proto::ControlMsg::kReroute:
      // The Clearinghouse redelivered our migrated cargo to `who`: re-target
      // the forwarding stub and replay every fill logged since the drain —
      // the redelivered snapshot predates them (duplicates are idempotent).
      if (msg->who.valid() && msg->who != me_) {
        forward_to_ = msg->who;
        flushed_fills_ = 0;
        flush_fill_log();
      }
      break;
    case proto::ControlMsg::kMigrationRetired:
      // Ledger entry msg->view is gone (holder finished the cargo or
      // re-snapshotted it with all fills applied): once no migration of
      // ours remains outstanding, no kReroute can ever replay the fill
      // log, so release it instead of retaining it forever.
      outstanding_migrations_.erase(msg->view);
      if (outstanding_migrations_.empty()) {
        fill_log_.clear();
        flushed_fills_ = 0;
      }
      break;
    default:
      break;
  }
  return {};
}

void WorkerActor::apply_death(net::NodeId dead) {
  ever_died_.insert(dead.value);
  // A stub's core is empty and its steal ledger lives at the successor,
  // which inherited the victim role.
  if (terminated() || dead == me_) return;
  peers_.erase(std::remove(peers_.begin(), peers_.end(), dead), peers_.end());
  const std::size_t redone = core_.handle_participant_death(dead);
  if (redone > 0 && state_ == State::kActive) wake(0);
  // During kDeparting the redo snapshots just landed in a drained core; the
  // handshake's next confirm loops back through begin_migration_round, which
  // packages them into a fresh migration round.
}

void WorkerActor::evict(DepartReason reason) {
  const auto lock = enter();
  if (closed_ || state_ == State::kDeparting || terminated()) return;
  // An in-flight steal may yet deliver a closure (possibly on a
  // retransmitted reply).  The victim's ledger only redoes work for thieves
  // that die, so departing now would strand it; wait for the reply and let
  // the closure migrate out with the rest.
  if (steal_in_flight_) {
    pending_evict_ = reason;
    return;
  }
  depart(reason);
}

void WorkerActor::depart(DepartReason reason) {
  if (state_ == State::kDeparting || terminated()) return;
  depart_reason_ = reason;
  core_.trace_instant(obs::EventType::kReclaim, ClosureId{},
                      reason == DepartReason::kOwnerReclaimed   ? 1
                      : reason == DepartReason::kPreempted      ? 2
                                                                : 0);
  // Heartbeats keep running through the handshake: if we crash mid-departure
  // the failure detector must still fire, and if we finish cleanly the
  // unregister retires us before any timeout.
  state_ = State::kDeparting;
  begin_migration_round();
}

void WorkerActor::begin_migration_round() {
  if (state_ != State::kDeparting) return;
  // Drain everything a crash of this worker (or of the successor) would
  // lose: remaining closures AND the steal ledger — the successor inherits
  // the victim role for our thieves' outstanding work.
  std::vector<Closure> cargo = core_.drain_for_migration();
  std::vector<proto::MigrantLedgerEntry> ledger = core_.export_steal_ledger();
  if (cargo.empty() && ledger.empty()) {
    finalize_depart(/*abandoned=*/nullptr);
    return;
  }
  const std::uint64_t mid =
      (static_cast<std::uint64_t>(me_.value) << 32) | next_mig_seq_++;
  // Step 1: register the cargo snapshot with the Clearinghouse BEFORE any
  // handoff.  From here on, a crash of ours or the successor's is
  // recoverable: the coordinator redelivers from the ledger.
  proto::MigrationLedgerMsg reg;
  reg.migration_id = mid;
  reg.from = me_;
  reg.holder = me_;
  reg.closures = cargo;
  reg.ledger = ledger;
  const Bytes payload = reg.encode();
  charge_send(payload.size());
  client_.call(
      proto::kRpcMigrateLedger, payload,
      entry([this, inc = incarnation_, mid, cargo = std::move(cargo),
             ledger = std::move(ledger)](net::RpcResult result) mutable {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          finalize_depart("migration ledger unreachable");
          return;
        }
        // The ledger entry exists from here until the coordinator retires
        // it (even if the handoff below is abandoned): retain the fill log
        // for a possible kReroute replay until the retirement notice.
        outstanding_migrations_.insert(mid);
        try_handoff(mid, std::move(cargo), std::move(ledger), peers_);
      }),
      params_.rpc_policy);
}

void WorkerActor::try_handoff(std::uint64_t mid, std::vector<Closure> cargo,
                              std::vector<proto::MigrantLedgerEntry> ledger,
                              std::vector<net::NodeId> candidates) {
  if (state_ != State::kDeparting) return;
  if (candidates.empty()) {
    // Nobody accepted.  The ledger is registered with us as holder, so our
    // (suppressed-unregister) death hands the cargo to the coordinator's
    // redelivery path instead of losing it.
    finalize_depart("no successor accepted the cargo");
    return;
  }
  const std::size_t pick = rng_.below(candidates.size());
  const net::NodeId successor = candidates[pick];
  candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));
  proto::MigrateMsg msg;
  msg.from = me_;
  msg.closures = cargo;
  msg.migration_id = mid;
  msg.redelivery = false;
  msg.ledger = ledger;
  const Bytes payload = msg.encode();
  charge_send(payload.size());
  // Step 2: acked handoff.  The cargo is only considered placed once the
  // successor's reply says it installed it; refusals and RPC failures
  // rotate to the next candidate.
  rpc_.call(
      successor, proto::kRpcMigrate, payload,
      entry([this, inc = incarnation_, mid, successor,
             cargo = std::move(cargo), ledger = std::move(ledger),
             candidates = std::move(candidates)](
                net::RpcResult result) mutable {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          // Unreachable, departing, or dead: try the next candidate.
          try_handoff(mid, std::move(cargo), std::move(ledger),
                      std::move(candidates));
          return;
        }
        forward_to_ = successor;
        flush_fill_log();
        confirm_holder(mid, successor);
      }),
      params_.rpc_policy);
}

void WorkerActor::confirm_holder(std::uint64_t mid, net::NodeId holder) {
  if (state_ != State::kDeparting) return;
  // Step 3: atomically transfer redo ownership — after this ack the
  // coordinator watches the successor, not us, for this cargo.
  proto::MigrationLedgerMsg upd;
  upd.migration_id = mid;
  upd.from = me_;
  upd.holder = holder;
  client_.call(
      proto::kRpcMigrateLedger, upd.encode(),
      entry([this, inc = incarnation_](net::RpcResult result) {
        if (incarnation_ != inc || state_ != State::kDeparting) return;
        if (!accepted(result)) {
          // The successor holds the cargo but the coordinator still lists
          // us: die noisily (no unregister) so it redelivers; the duplicate
          // execution is idempotent at the joins.
          finalize_depart("holder confirmation unreachable");
          return;
        }
        // A death notice or a late steal reply that arrived mid-handshake
        // refilled the drained core: run another round for it.
        begin_migration_round();
      }),
      params_.rpc_policy);
}

bool WorkerActor::accepted(const net::RpcResult& result) {
  if (!result.ok) return false;
  Reader r(result.reply);
  return r.boolean() && r.ok();
}

void WorkerActor::finalize_depart(const char* abandoned) {
  if (abandoned != nullptr) {
    PHISH_LOG(kWarn) << net::to_string(me_) << ": departing but "
                     << abandoned
                     << "; skipping unregister so the failure detector "
                        "triggers the redo path";
  }
  state_ = State::kDeparted;
  end_time_ = rpc_.now_ns();
  stop_timers();
  send_stats_and_unregister(/*unregister=*/abandoned == nullptr);
  if (on_terminated_) on_terminated_(state_);
  if (pending_rejoin_) {
    pending_rejoin_ = false;
    rejoin_now();
  }
}

void WorkerActor::log_and_forward_fill(proto::ArgumentMsg arg) {
  if (arg.ttl == 0) return;  // forwarding-cycle guard: drop, let redo cover
  --arg.ttl;
  if (forward_to_.valid() && outstanding_migrations_.empty()) {
    // Every ledger entry we originated is retired, so no kReroute can ever
    // ask for a replay: forward without retaining.  (With no successor yet
    // the fill must still be buffered below, retirement or not.)
    rpc_.send_oneway(forward_to_, proto::kArgument, arg.encode());
    return;
  }
  fill_log_.push_back(arg.encode());
  flush_fill_log();
}

void WorkerActor::flush_fill_log() {
  if (!forward_to_.valid()) return;
  for (std::size_t i = flushed_fills_; i < fill_log_.size(); ++i) {
    rpc_.send_oneway(forward_to_, proto::kArgument, fill_log_[i]);
  }
  flushed_fills_ = fill_log_.size();
}

Bytes WorkerActor::serve_migrate(const Bytes& args) {
  Writer reply;
  auto m = proto::MigrateMsg::decode(args);
  if (!m || state_ != State::kActive) {
    // Departing/dead/stub workers refuse: the sender (origin or
    // coordinator) picks someone else.
    reply.boolean(false);
    return reply.take();
  }
  charge_recv();
  if (m->migration_id != 0 &&
      !seen_migrations_.insert(m->migration_id).second) {
    // Duplicate delivery (retransmitted handoff racing a coordinator
    // redelivery): already installed, just re-ack.
    reply.boolean(true);
    return reply.take();
  }
  for (Closure& c : m->closures) {
    if (m->redelivery) {
      core_.install_migration_redo(std::move(c));
    } else {
      core_.install_migrated(std::move(c));
    }
  }
  for (proto::MigrantLedgerEntry& e : m->ledger) {
    // Inherit the victim role: if the thief already died (we saw the
    // notice; the origin's redo never ran), redo now instead of ledgering.
    core_.adopt_migrant_ledger(e.thief, std::move(e.snapshot),
                               ever_died_.count(e.thief.value) != 0);
  }
  if (m->migration_id != 0) {
    core_.trace_instant(obs::EventType::kMigrateRereg, ClosureId{},
                        static_cast<std::uint32_t>(m->closures.size() +
                                                   m->ledger.size()));
  }
  wake(0);
  reply.boolean(true);
  return reply.take();
}

void WorkerActor::finish_job() {
  if (state_ != State::kActive && state_ != State::kRegistering) return;
  state_ = State::kFinished;
  end_time_ = rpc_.now_ns();
  stop_timers();
  core_.clear_steal_ledger();
  send_stats_and_unregister(/*unregister=*/true);
  if (on_terminated_) on_terminated_(state_);
}

void WorkerActor::send_stats_and_unregister(bool unregister) {
  proto::StatsMsg stats;
  stats.who = me_;
  stats.stats = core_.stats();
  stats.start_ns = start_time_;
  stats.end_ns = end_time_;
  client_.send_oneway(proto::kStatsReport, stats.encode());
  if (!unregister) return;  // depart-with-lost-cargo: be "dead", not gone
  client_.call(proto::kRpcUnregister, {}, [](net::RpcResult) {},
               params_.rpc_policy);
}

void WorkerActor::refresh_membership() {
  if (terminated()) return;
  // Present the epoch we already hold: steady-state refreshes come back as
  // (usually empty) deltas instead of full snapshots.
  client_.call(
      proto::kRpcUpdate, proto::UpdateRequest{known_epoch_}.encode(),
      entry([this, inc = incarnation_,
             since = known_epoch_](net::RpcResult result) {
        if (incarnation_ != inc) return;  // callback from a past life
        if (result.ok && !terminated()) apply_membership(since, result.reply);
      }),
      params_.rpc_policy);
}

std::optional<net::NodeId> WorkerActor::pick_victim() {
  if (peers_.empty()) return std::nullopt;
  switch (params_.victim_policy) {
    case VictimPolicy::kUniformRandom:
      return peers_[rng_.below(peers_.size())];
    case VictimPolicy::kRoundRobin:
      return peers_[round_robin_cursor_++ % peers_.size()];
    case VictimPolicy::kFixedFirst:
      return peers_.front();
    case VictimPolicy::kClusterLocal: {
      // Random victim within our cluster until repeated failures suggest the
      // local cluster is out of work; then random among everyone.
      if (consecutive_failed_steals_ < params_.cluster_escalate_after) {
        const int my_cluster = cluster_of(me_);
        std::vector<net::NodeId> local;
        for (net::NodeId p : peers_) {
          if (cluster_of(p) == my_cluster) local.push_back(p);
        }
        if (!local.empty()) return local[rng_.below(local.size())];
      }
      return peers_[rng_.below(peers_.size())];
    }
  }
  return peers_.front();
}

void WorkerActor::crash() {
  const auto lock = enter();
  if (closed_ || terminated()) return;
  core_.trace_instant(obs::EventType::kCrash, ClosureId{}, 0);
  state_ = State::kDead;
  end_time_ = rpc_.now_ns();
  stop_timers();
  on_crash();
  if (on_terminated_) on_terminated_(state_);
}

void WorkerActor::rejoin() {
  const auto lock = enter();
  if (!closed_) rejoin_now();
}

void WorkerActor::rejoin_now() {
  if (state_ == State::kDeparting) {
    // The restart raced the durability handshake: finish departing (the
    // cargo's redo ownership must land somewhere) and come back after.
    pending_rejoin_ = true;
    return;
  }
  if (state_ != State::kDead && state_ != State::kDeparted) return;
  on_rejoin();  // the replacement machine comes online
  ++incarnation_;
  // Survivors redo everything the dead life had stolen; the new life starts
  // empty but keeps its id allocator (late messages addressed to the old
  // incarnation must not land in new closures).  peers_ and known_epoch_
  // survive as the base the registration delta is applied against.
  // forward_to_ and the fill log survive too: the stub obligation for the
  // previous life's migrated closures outlives it (arguments addressed here
  // keep arriving, and a kReroute may still ask for a replay).  Locally
  // unknown fills forward; the ArgumentMsg ttl bounds any stub cycle.
  core_.reset_for_rejoin();
  seen_migrations_.clear();
  register_backoff_ = 0;
  steal_in_flight_ = false;
  pending_evict_.reset();
  consecutive_failed_steals_ = 0;
  depart_reason_.reset();
  state_ = State::kCreated;
  register_now();
}

void WorkerActor::emit_io(const std::string& text) {
  client_.send_oneway(proto::kIo, proto::IoMsg{me_, text}.encode());
}

}  // namespace phish::rt
