#include "faults/control_chaos.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "core/require.h"
#include "core/rng.h"
#include "faults/fault_domain.h"
#include "faults/fault_plan.h"
#include "macro/control_plane/controller.h"
#include "macro/geo.h"
#include "sensing/actuator_plane.h"
#include "sensing/fencing.h"
#include "sim/sharded_simulator.h"
#include "sim/snapshot.h"

namespace epm::faults {
namespace {

constexpr std::uint64_t kDriveTag = 1;
constexpr std::uint64_t kHbTag = 2;
constexpr std::uint64_t kCmdTag = 3;
constexpr std::uint64_t kJrnTag = 4;
constexpr std::uint64_t kCtlFaultTag = 5;
constexpr std::uint32_t kControlMagic = 0x776c7463;  // "ctlw"
constexpr std::uint32_t kControlVersion = 2;  // v2: per-pair sequence tables
/// Every control message starts with {dst DC, src DC, per-pair sequence}.
constexpr std::size_t kHeaderWords = 3;

/// Controller fault edges delivered into the world clock.
enum class CtlFaultAction : std::uint64_t {
  kCrash = 0,
  kRestart,
  kHang,
  kResume,
};

/// Deterministic uniform draw for (seed, dc, counter); streams never depend
/// on sharding or threading.
double u01(std::uint64_t seed, std::uint64_t d, std::uint64_t ctr) {
  const std::uint64_t z =
      SplitMix64::mix(seed + 0x9e3779b97f4a7c15ULL * (d * 1000003ULL + ctr + 1));
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// Checks the config (and the optional link plan against it); returns it.
const ControlChaosConfig& validated(const ControlChaosConfig& c,
                                    const network::InterDcLinkPlan* plan) {
  require(c.dcs >= 1, "control chaos: need at least one datacenter");
  require(c.shards == 0 ||
              (c.shards <= c.dcs && c.dcs % c.shards == 0),
          "control chaos: shards must divide dcs");
  require(c.epoch_s > 0.0, "control chaos: epoch_s must be positive");
  require(c.lookahead_s > 0.0, "control chaos: lookahead_s must be positive");
  require(c.drive_until_s > 0.0 && c.drive_until_s <= c.horizon_s,
          "control chaos: need 0 < drive_until_s <= horizon_s");
  require(c.lease_ttl_s > 0.0, "control chaos: lease_ttl_s must be positive");
  require(c.servers_per_dc >= 1 && c.per_server_rps > 0.0,
          "control chaos: plant needs servers and a service rate");
  require(c.eco_cap > 0.0 && c.eco_cap <= 1.0 && c.eco_active_frac > 0.0 &&
              c.eco_active_frac <= 1.0,
          "control chaos: eco fractions must be in (0, 1]");
  require(c.demand_jitter >= 0.0 && c.demand_jitter < 1.0,
          "control chaos: demand_jitter must be in [0, 1)");
  require(c.end_window_s > 0.0 && c.end_window_s <= c.drive_until_s,
          "control chaos: end_window_s must be in (0, drive_until_s]");
  if (plan != nullptr) {
    require(c.shards == 0 || c.shards == c.dcs,
            "control chaos: a link plan requires shards == dcs");
    require(plan->site_count() == c.dcs,
            "control chaos: link plan site count must equal dcs");
  }
  return c;
}

std::size_t effective_shards(const ControlChaosConfig& c) {
  return c.shards == 0 ? c.dcs : c.shards;
}

sim::ShardedConfig make_sharded_config(const ControlChaosConfig& c) {
  sim::ShardedConfig sc;
  sc.shards = effective_shards(c);
  sc.threads = c.threads;
  sc.uniform_lookahead_s = c.lookahead_s;
  return sc;
}

/// The staged eco-mode transition: enter tightens cap, raises the CRAC
/// setpoint, and powers servers down per DC; exit reverses in the safe
/// order (capacity first). The exit sweep is rotated to start at DC 1 so
/// the reference leader kill lands while DC 0 is still unreached.
std::vector<macro::ProgramStep> make_program(const ControlChaosConfig& c) {
  std::vector<macro::ProgramStep> prog;
  const auto n = static_cast<std::uint32_t>(c.dcs);
  const double eco_servers = std::floor(
      static_cast<double>(c.servers_per_dc) * c.eco_active_frac);
  for (std::uint32_t dc = 0; dc < n; ++dc) {
    prog.push_back({c.eco_enter_s, dc, macro::ControlOp::kPowerCap, c.eco_cap});
    prog.push_back(
        {c.eco_enter_s, dc, macro::ControlOp::kCracSetpoint, c.eco_setpoint_c});
    prog.push_back(
        {c.eco_enter_s, dc, macro::ControlOp::kFleetActive, eco_servers});
  }
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t dc = (1 + k) % n;
    prog.push_back({c.eco_exit_s, dc, macro::ControlOp::kFleetActive,
                    static_cast<double>(c.servers_per_dc)});
    prog.push_back(
        {c.eco_exit_s, dc, macro::ControlOp::kCracSetpoint, c.safe_setpoint_c});
    prog.push_back({c.eco_exit_s, dc, macro::ControlOp::kPowerCap, 1.0});
  }
  return prog;
}

struct ScheduledCtlFault {
  std::size_t dc = 0;
  CtlFaultAction action = CtlFaultAction::kCrash;
  double at_s = 0.0;
};

/// Expands the controller FaultPlan text plus the grid script into crash /
/// hang / restart edges on replica clocks. Grid outages and ctl-kill events
/// kill the controllers co-located with their datacenters.
std::vector<ScheduledCtlFault> expand_controller_faults(
    const ControlChaosConfig& c) {
  std::vector<ScheduledCtlFault> out;
  const auto push = [&](std::size_t dc, CtlFaultAction a, double at) {
    if (at >= 0.0 && at < c.drive_until_s) out.push_back({dc, a, at});
  };
  if (!c.controller_faults.empty()) {
    const FaultPlan plan = FaultPlan::parse(c.controller_faults);
    plan.validate_targets(0, 0, c.dcs);
    for (const FaultEvent& e : plan.events()) {
      switch (e.type) {
        case FaultType::kControllerCrash:
        case FaultType::kControllerRestart:
          push(e.target, CtlFaultAction::kCrash, e.start_s);
          push(e.target, CtlFaultAction::kRestart, e.end_s());
          break;
        case FaultType::kControllerHang:
          push(e.target, CtlFaultAction::kHang, e.start_s);
          push(e.target, CtlFaultAction::kResume, e.end_s());
          break;
        default:
          throw std::invalid_argument(
              "control chaos: controller_faults may only contain ctl-crash / "
              "ctl-hang / ctl-restart entries, got '" +
              faults::to_string(e.type) + "'");
      }
    }
  }
  if (!c.grid_script.empty()) {
    std::vector<std::string> names;
    names.reserve(c.dcs);
    for (const macro::SiteConfig& s : macro::make_reference_fleet_sites(c.dcs)) {
      names.push_back(s.name);
    }
    const FaultDomainTree tree = make_reference_fault_domains(names);
    const DomainFaultPlan grid = DomainFaultPlan::parse(c.grid_script);
    DomainExpansionConfig expansion;
    expansion.seed = c.seed;
    for (const ExpandedDcFault& x :
         expand_to_datacenters(tree, grid, expansion)) {
      if (x.kind != GridEventKind::kOutage &&
          x.kind != GridEventKind::kControllerKill) {
        continue;  // price/brownout signals have no control-plane shadow here
      }
      push(x.dc, CtlFaultAction::kCrash, x.onset_s);
      push(x.dc, CtlFaultAction::kRestart, x.clear_s);
    }
  }
  return out;
}

sensing::ActuatorCommand to_actuator_command(const macro::ControlCommand& cmd) {
  sensing::ActuatorCommand ac;
  switch (cmd.op) {
    case macro::ControlOp::kPowerCap:
      ac.kind = sensing::CommandKind::kPowerCap;
      break;
    case macro::ControlOp::kCracSetpoint:
      ac.kind = sensing::CommandKind::kCracSupply;
      break;
    case macro::ControlOp::kFleetActive:
      ac.kind = sensing::CommandKind::kFleetSize;
      break;
    case macro::ControlOp::kPauseConsolidation:
      ac.kind = sensing::CommandKind::kConsolidation;
      break;
  }
  ac.target = cmd.dc;
  ac.value = cmd.value;
  return ac;
}

/// Snapshot-capable control-plane world: its own federation (optionally
/// over a degraded-link plan, non-owning), one TaggedKernel per shard, one
/// plant + actuator endpoint per DC, one controller replica per DC (or only
/// at DC 0 in the naive arm). All mutable state is plain data.
class ControlWorld {
 public:
  explicit ControlWorld(const ControlChaosConfig& config,
                        const network::InterDcLinkPlan* plan = nullptr)
      : config_(validated(config, plan)),
        fed_(make_sharded_config(config)),
        shards_(effective_shards(config)),
        dcs_per_shard_(config.dcs / effective_shards(config)),
        plants_(config.dcs),
        seq_sent_(config.dcs * config.dcs, 0),
        seq_received_(config.dcs * config.dcs, 0),
        sent_per_shard_(effective_shards(config), 0),
        received_per_shard_(effective_shards(config), 0),
        fifo_breaks_per_shard_(effective_shards(config), 0) {
    const std::vector<macro::ProgramStep> program = make_program(config_);
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      Plant& p = plants_[d];
      p.active_servers = static_cast<double>(config_.servers_per_dc);
      p.cap_frac = 1.0;
      p.setpoint_c = config_.safe_setpoint_c;
      endpoints_.push_back(std::make_unique<Endpoint>(config_));
      endpoints_.back()->plane.set_applier(
          [this, d](const sensing::ActuatorCommand& c) {
            apply_to_plant(d, c);
            return true;
          });
      const bool hosted = config_.replicated || d == 0;
      if (hosted) {
        macro::ControllerConfig cc;
        cc.lease.replicas = config_.replicated ? config_.dcs : 1;
        cc.lease.id = config_.replicated ? d : 0;
        cc.lease.ttl_s = config_.lease_ttl_s;
        cc.lease.ttl_stagger_s = config_.lease_ttl_stagger_s;
        cc.lease.initial_leader = 0;
        cc.datacenters = config_.dcs;
        cc.max_steps_per_tick = config_.max_steps_per_tick;
        replicas_.push_back(
            std::make_unique<macro::ControllerReplica>(cc, program));
      } else {
        replicas_.push_back(nullptr);
      }
    }
    for (std::size_t s = 0; s < shards_; ++s) {
      kernels_.push_back(std::make_unique<sim::TaggedKernel>(fed_.shard(s)));
      sim::TaggedKernel& tk = *kernels_.back();
      tk.on(kDriveTag, [this](double now, const sim::TagPayload& p) {
        drive(static_cast<std::size_t>(p[0]), now);
      });
      tk.on(kHbTag, [this](double now, const sim::TagPayload& p) {
        on_heartbeat(receive(p), p[kHeaderWords], p[kHeaderWords + 1], now);
      });
      tk.on(kCmdTag, [this](double now, const sim::TagPayload& p) {
        on_command(receive(p), p, now);
      });
      tk.on(kJrnTag, [this](double, const sim::TagPayload& p) {
        on_journal(receive(p), p);
      });
      tk.on(kCtlFaultTag, [this](double now, const sim::TagPayload& p) {
        on_ctl_fault(static_cast<std::size_t>(p[0]),
                     static_cast<CtlFaultAction>(p[1]), now);
      });
    }
    fed_.set_tagged_delivery(
        [this](std::size_t dst, double when_s, std::uint64_t tag,
               const std::vector<std::uint64_t>& payload) {
          kernels_[dst]->schedule_tagged_at(when_s, tag, payload);
        });
    if (plan != nullptr) fed_.set_link_plan(plan);
  }

  sim::ShardedSimulator& fed() { return fed_; }

  /// Fresh-run arming: first drive tick per DC plus every scheduled
  /// controller fault edge. NOT called on the restore path.
  void arm() {
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      kernels_[shard_of(d)]->schedule_tagged_at(
          0.0, kDriveTag, {static_cast<std::uint64_t>(d)});
    }
    for (const ScheduledCtlFault& f : expand_controller_faults(config_)) {
      kernels_[shard_of(f.dc)]->schedule_tagged_at(
          f.at_s, kCtlFaultTag,
          {static_cast<std::uint64_t>(f.dc),
           static_cast<std::uint64_t>(f.action)});
    }
  }

  void save(sim::SnapshotWriter& w) const {
    w.begin_section(kControlMagic, kControlVersion);
    w.write_u64(config_.dcs);
    w.write_u64(shards_);
    for (const std::uint64_t n : sent_per_shard_) w.write_u64(n);
    for (const std::uint64_t n : received_per_shard_) w.write_u64(n);
    for (const std::uint64_t n : fifo_breaks_per_shard_) w.write_u64(n);
    w.write_payload(seq_sent_);
    w.write_payload(seq_received_);
    for (const Plant& p : plants_) {
      w.write_f64(p.active_servers);
      w.write_f64(p.cap_frac);
      w.write_f64(p.setpoint_c);
      w.write_u8(p.paused ? 1 : 0);
      w.write_u64(p.rng_ctr);
      w.write_u64(p.stats.epochs);
      w.write_f64(p.stats.demand_total);
      w.write_f64(p.stats.served_total);
      w.write_u64(p.stats.sla_violation_epochs);
      w.write_u64(p.stats.thermal_alarm_epochs);
      w.write_f64(p.stats.max_temp_c);
      w.write_f64(p.stats.prefault_demand);
      w.write_f64(p.stats.prefault_served);
      w.write_f64(p.stats.end_demand);
      w.write_f64(p.stats.end_served);
    }
    for (const auto& e : endpoints_) {
      w.write_u64(e->hb_token_floor);
      w.write_u64(e->heartbeats_seen);
      e->ledger.save(w);
      e->deadman.save(w);
      e->plane.save(w);
    }
    for (const auto& r : replicas_) {
      w.write_u8(r != nullptr ? 1 : 0);
      if (r != nullptr) r->save(w);
    }
    for (std::size_t s = 0; s < shards_; ++s) kernels_[s]->save(w);
    fed_.save_state(w);
  }

  void restore(sim::SnapshotReader& r) {
    r.expect_section(kControlMagic, kControlVersion);
    require(r.read_u64() == config_.dcs,
            "control snapshot datacenter count does not match the config");
    require(r.read_u64() == shards_,
            "control snapshot shard count does not match the config");
    for (std::uint64_t& n : sent_per_shard_) n = r.read_u64();
    for (std::uint64_t& n : received_per_shard_) n = r.read_u64();
    for (std::uint64_t& n : fifo_breaks_per_shard_) n = r.read_u64();
    seq_sent_ = r.read_payload();
    seq_received_ = r.read_payload();
    require(seq_sent_.size() == config_.dcs * config_.dcs &&
                seq_received_.size() == config_.dcs * config_.dcs,
            "control snapshot sequence tables do not match the fleet size");
    for (Plant& p : plants_) {
      p.active_servers = r.read_f64();
      p.cap_frac = r.read_f64();
      p.setpoint_c = r.read_f64();
      p.paused = r.read_u8() != 0;
      p.rng_ctr = r.read_u64();
      p.stats.epochs = r.read_u64();
      p.stats.demand_total = r.read_f64();
      p.stats.served_total = r.read_f64();
      p.stats.sla_violation_epochs = r.read_u64();
      p.stats.thermal_alarm_epochs = r.read_u64();
      p.stats.max_temp_c = r.read_f64();
      p.stats.prefault_demand = r.read_f64();
      p.stats.prefault_served = r.read_f64();
      p.stats.end_demand = r.read_f64();
      p.stats.end_served = r.read_f64();
    }
    for (auto& e : endpoints_) {
      e->hb_token_floor = r.read_u64();
      e->heartbeats_seen = r.read_u64();
      e->ledger.restore(r);
      e->deadman.restore(r);
      e->plane.restore(r);
    }
    for (auto& rep : replicas_) {
      const bool hosted = r.read_u8() != 0;
      require(hosted == (rep != nullptr),
              "control snapshot replica layout does not match the config");
      if (rep != nullptr) rep->restore(r);
    }
    for (std::size_t s = 0; s < shards_; ++s) kernels_[s]->restore(r);
    fed_.restore_state(r);
  }

  ControlChaosOutcome finish() const {
    ControlChaosOutcome out;
    out.dcs.resize(config_.dcs);
    out.replicas.resize(config_.dcs);
    double prefault_demand = 0.0, prefault_served = 0.0;
    double end_demand = 0.0, end_served = 0.0;
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      const Endpoint& e = *endpoints_[d];
      ControlDcOutcome& o = out.dcs[d];
      o = plants_[d].stats;
      o.commands_applied = e.ledger.applied();
      o.fencing_rejections = e.plane.fencing_rejections();
      o.stale_rejected = e.ledger.rejected_stale();
      o.double_actuations = e.ledger.double_actuations();
      o.stale_applied = e.ledger.stale_applied();
      o.safe_state_trips = e.deadman.trips();
      o.heartbeats_seen = e.heartbeats_seen;
      out.max_token = std::max(out.max_token, e.ledger.max_token());
      out.total_sla_violations += o.sla_violation_epochs;
      out.total_alarms += o.thermal_alarm_epochs;
      prefault_demand += o.prefault_demand;
      prefault_served += o.prefault_served;
      end_demand += o.end_demand;
      end_served += o.end_served;

      ControlReplicaOutcome& ro = out.replicas[d];
      if (replicas_[d] != nullptr) {
        const macro::ControllerReplica& rep = *replicas_[d];
        ro.hosted = true;
        ro.claims = rep.lease().claimed_tokens().size();
        ro.depositions = rep.lease().depositions();
        ro.crashes = rep.lease().crashes();
        ro.stale_heartbeats = rep.lease().stale_heartbeats();
        ro.commands_issued = rep.commands_issued();
        ro.commands_replayed = rep.commands_replayed();
        ro.journal_entries = rep.journal().size();
        ro.journal_rejected_stale = rep.journal().rejected_stale();
        ro.final_max_token = rep.lease().max_token_seen();
        ro.claimed_tokens = rep.lease().claimed_tokens();
      }
    }
    out.final_now_s = fed_.now();
    out.final_pending = fed_.pending();
    for (const std::uint64_t n : sent_per_shard_) out.control_messages += n;
    for (const std::uint64_t n : received_per_shard_) {
      out.messages_received += n;
    }
    out.fifo_ok = true;
    for (const std::uint64_t n : fifo_breaks_per_shard_) {
      if (n != 0) out.fifo_ok = false;
    }
    out.fleet_prefault_frac =
        prefault_demand > 0.0 ? prefault_served / prefault_demand : 0.0;
    out.fleet_end_frac = end_demand > 0.0 ? end_served / end_demand : 0.0;

    // At most one live lease per epoch: every claimed token is globally
    // unique and congruent to its claimant mod the replica count.
    const std::uint64_t replicas =
        config_.replicated ? static_cast<std::uint64_t>(config_.dcs) : 1;
    std::set<std::uint64_t> seen_tokens;
    out.lease_unique_ok = true;
    for (std::size_t d = 0; d < config_.dcs; ++d) {
      const ControlReplicaOutcome& ro = out.replicas[d];
      const std::uint64_t id = config_.replicated ? d : 0;
      for (const std::uint64_t t : ro.claimed_tokens) {
        if (!seen_tokens.insert(t).second || t % replicas != id) {
          out.lease_unique_ok = false;
        }
      }
    }
    out.fencing_clean = true;
    for (const auto& e : endpoints_) {
      if (e->ledger.double_actuations() != 0) out.fencing_clean = false;
      if (e->ledger.enforced() && e->ledger.stale_applied() != 0) {
        out.fencing_clean = false;
      }
    }
    bool fractions_ok = true;
    for (const ControlDcOutcome& o : out.dcs) {
      if (o.served_total > o.demand_total + 1e-9) fractions_ok = false;
    }
    out.conservation_ok = fractions_ok && out.final_pending == 0 &&
                          fed_.messages_parked() == 0 &&
                          out.messages_received == out.control_messages;
    std::ostringstream os;
    os << "prefault_frac=" << out.fleet_prefault_frac
       << " end_frac=" << out.fleet_end_frac
       << " sla_violations=" << out.total_sla_violations
       << " alarms=" << out.total_alarms << " max_token=" << out.max_token
       << " msgs=" << out.control_messages
       << (out.fencing_clean ? " [fencing-clean]" : " [DOUBLE-ACTUATED]")
       << (out.lease_unique_ok ? " [lease-unique]" : " [LEASE-DUP]")
       << (out.conservation_ok ? " [conserved]" : " [NOT conserved]");
    out.report = os.str();
    return out;
  }

 private:
  struct Plant {
    double active_servers = 0.0;
    double cap_frac = 1.0;
    double setpoint_c = 22.0;
    bool paused = false;
    std::uint64_t rng_ctr = 0;
    /// Plant-side accounting; finish() adds the actuator-ledger fields.
    ControlDcOutcome stats;
  };

  /// Actuator-side state at one DC: the fenced plane, the ledger, and the
  /// dead-man watchdog. The plane's applier (set by the world) writes the
  /// DC's plant.
  struct Endpoint {
    explicit Endpoint(const ControlChaosConfig& c)
        : ledger(c.fencing),
          deadman(c.deadman ? c.deadman_ttl_s : 0.0),
          plane(sensing::ActuatorPlaneConfig{}) {
      plane.set_fencing(&ledger);
    }
    sensing::FencingLedger ledger;
    sensing::DeadMansSwitch deadman;
    sensing::ActuatorPlane plane;
    std::uint64_t hb_token_floor = 0;
    std::uint64_t heartbeats_seen = 0;
  };

  std::size_t shard_of(std::size_t dc) const { return dc / dcs_per_shard_; }

  /// The one send point. Routes a control message with the per-source delay
  /// stagger: arrivals from different source DCs can never tie at one
  /// timestamp, so handler order — and therefore the whole world — is
  /// shard-mapping invariant. Same-shard sends go through the destination
  /// kernel directly because federation loopback would deliver immediately
  /// instead of after the delay. The payload is prefixed with {dst, src,
  /// seq}, seq the next number on the (src, dst) pair. The sequence row and
  /// the send counter belong to the source shard: during a window only the
  /// owning shard's worker touches them.
  void route(std::size_t src_dc, std::size_t dst_dc, double now_s,
             std::uint64_t tag, const sim::TagPayload& body) {
    ++sent_per_shard_[shard_of(src_dc)];
    const std::uint64_t seq = ++seq_sent_[src_dc * config_.dcs + dst_dc];
    sim::TagPayload payload{dst_dc, src_dc, seq};
    payload.insert(payload.end(), body.begin(), body.end());
    const double delay =
        config_.lookahead_s *
        (1.0 + static_cast<double>(src_dc + 1) * 0x1.0p-20);
    const std::size_t ss = shard_of(src_dc);
    const std::size_t ds = shard_of(dst_dc);
    if (ss == ds) {
      kernels_[ds]->schedule_tagged_at(now_s + delay, tag, std::move(payload));
    } else {
      fed_.send_tagged(ss, ds, delay, tag, std::move(payload));
    }
  }

  /// The one delivery point: counts the receive and checks the sequence
  /// against the last one seen on the (src, dst) pair. Everything it writes
  /// belongs to the destination shard. Returns the destination DC.
  std::size_t receive(const sim::TagPayload& p) {
    require(p.size() >= kHeaderWords, "control message is missing its header");
    const auto dst = static_cast<std::size_t>(p[0]);
    const auto src = static_cast<std::size_t>(p[1]);
    require(dst < config_.dcs && src < config_.dcs,
            "control message names an unknown datacenter");
    const std::size_t shard = shard_of(dst);
    ++received_per_shard_[shard];
    std::uint64_t& last = seq_received_[dst * config_.dcs + src];
    if (p[2] != last + 1) ++fifo_breaks_per_shard_[shard];
    last = p[2];
    return dst;
  }

  void apply_to_plant(std::size_t d, const sensing::ActuatorCommand& c) {
    Plant& p = plants_[d];
    switch (c.kind) {
      case sensing::CommandKind::kPowerCap:
        p.cap_frac = std::clamp(c.value, 0.0, 1.0);
        break;
      case sensing::CommandKind::kCracSupply:
        p.setpoint_c = c.value;
        break;
      case sensing::CommandKind::kFleetSize:
        p.active_servers = std::clamp(
            c.value, 0.0, static_cast<double>(config_.servers_per_dc));
        break;
      case sensing::CommandKind::kConsolidation:
        p.paused = c.value != 0.0;
        break;
      default:
        break;
    }
  }

  /// The dead-man's safe state: caps released, CRAC to the safe setpoint,
  /// every server on, consolidation paused — uncontrolled but safe.
  void apply_safe_state(std::size_t d) {
    Plant& p = plants_[d];
    p.cap_frac = 1.0;
    p.setpoint_c = config_.safe_setpoint_c;
    p.active_servers = static_cast<double>(config_.servers_per_dc);
    p.paused = true;
  }

  void drive(std::size_t d, double now) {
    // Replica control tick first (messages leave; nothing lands before the
    // lookahead), then the local watchdog, then plant accounting.
    if (replicas_[d] != nullptr) {
      for (const macro::Outbound& msg : replicas_[d]->tick(now)) {
        switch (msg.kind) {
          case macro::OutboundKind::kHeartbeat:
            route(d, msg.dst, now, kHbTag, {msg.token, msg.from});
            break;
          case macro::OutboundKind::kCommand:
            route(d, msg.dst, now, kCmdTag, macro::encode_command(msg.cmd));
            break;
          case macro::OutboundKind::kJournalRecord:
            route(d, msg.dst, now, kJrnTag, macro::encode_command(msg.cmd));
            break;
        }
      }
    }

    Endpoint& e = *endpoints_[d];
    if (e.deadman.expired(now)) apply_safe_state(d);
    e.plane.tick(now);

    Plant& p = plants_[d];
    ControlDcOutcome& st = p.stats;
    ++st.epochs;
    const double u = u01(config_.seed, d, p.rng_ctr++);
    const double base = now < config_.demand_rise_s ? config_.base_demand_rps
                                                    : config_.peak_demand_rps;
    const double demand =
        base * (1.0 - config_.demand_jitter + 2.0 * config_.demand_jitter * u);
    const double capacity =
        p.active_servers * config_.per_server_rps * p.cap_frac;
    const double served = std::min(demand, capacity);
    const double util =
        capacity > 0.0 ? demand / capacity : config_.util_cap;
    const double temp =
        p.setpoint_c +
        config_.temp_util_gain_c * std::min(util, config_.util_cap);
    st.demand_total += demand;
    st.served_total += served;
    if (served < demand - 1e-9) ++st.sla_violation_epochs;
    if (temp > config_.alarm_temp_c) ++st.thermal_alarm_epochs;
    st.max_temp_c = std::max(st.max_temp_c, temp);
    if (now < config_.prefault_until_s) {
      st.prefault_demand += demand;
      st.prefault_served += served;
    }
    if (now >= config_.drive_until_s - config_.end_window_s) {
      st.end_demand += demand;
      st.end_served += served;
    }
    const double next = now + config_.epoch_s;
    if (next < config_.drive_until_s) {
      kernels_[shard_of(d)]->schedule_tagged_at(
          next, kDriveTag, {static_cast<std::uint64_t>(d)});
    }
  }

  void on_heartbeat(std::size_t d, std::uint64_t token, std::uint64_t from,
                    double now) {
    Endpoint& e = *endpoints_[d];
    // Only a non-stale leader's heartbeat proves the control plane is
    // alive: a deposed split-brain survivor must not keep the watchdog fed.
    if (token >= e.hb_token_floor) {
      e.hb_token_floor = token;
      ++e.heartbeats_seen;
      e.deadman.feed(now);
    }
    if (replicas_[d] != nullptr) replicas_[d]->on_heartbeat(token, from, now);
  }

  void on_command(std::size_t d, const sim::TagPayload& p, double now) {
    require(p.size() == kHeaderWords + 7,
            "control command message must be 7 words after the header");
    const macro::ControlCommand cmd = macro::decode_command(
        sim::TagPayload(p.begin() + kHeaderWords, p.end()));
    Endpoint& e = *endpoints_[d];
    e.plane.issue_fenced(to_actuator_command(cmd), now, cmd.token, cmd.uid);
  }

  void on_journal(std::size_t d, const sim::TagPayload& p) {
    require(p.size() == kHeaderWords + 7,
            "journal record message must be 7 words after the header");
    if (replicas_[d] == nullptr) return;
    replicas_[d]->on_journal_record(macro::decode_command(
        sim::TagPayload(p.begin() + kHeaderWords, p.end())));
  }

  void on_ctl_fault(std::size_t d, CtlFaultAction action, double now) {
    if (replicas_[d] == nullptr) return;
    macro::ControllerReplica& rep = *replicas_[d];
    switch (action) {
      case CtlFaultAction::kCrash:
        if (rep.lease().role() != macro::LeaseRole::kCrashed) rep.crash();
        break;
      case CtlFaultAction::kRestart:
        if (rep.lease().role() == macro::LeaseRole::kCrashed) rep.restart(now);
        break;
      case CtlFaultAction::kHang:
        rep.hang();
        break;
      case CtlFaultAction::kResume:
        rep.resume();
        break;
    }
  }

  const ControlChaosConfig config_;
  sim::ShardedSimulator fed_;
  std::size_t shards_;
  std::size_t dcs_per_shard_;
  std::vector<Plant> plants_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<macro::ControllerReplica>> replicas_;
  std::vector<std::unique_ptr<sim::TaggedKernel>> kernels_;
  /// seq_sent_[src * dcs + dst]: last sequence stamped on the pair (row
  /// owned by src's shard); seq_received_[dst * dcs + src]: last sequence
  /// delivered on it (row owned by dst's shard).
  std::vector<std::uint64_t> seq_sent_;
  std::vector<std::uint64_t> seq_received_;
  /// World-level sends and deliveries, one slot per shard (sends by source,
  /// deliveries and out-of-order arrivals by destination): window-race-free.
  std::vector<std::uint64_t> sent_per_shard_;
  std::vector<std::uint64_t> received_per_shard_;
  std::vector<std::uint64_t> fifo_breaks_per_shard_;
};

}  // namespace

ControlChaosOutcome run_control_plane(const ControlChaosConfig& config,
                                      const network::InterDcLinkPlan* plan) {
  ControlWorld world(config, plan);
  world.arm();
  world.fed().run_until(config.horizon_s);
  return world.finish();
}

ControlRestoreReport run_control_plane_with_restore(
    const ControlChaosConfig& config, double snapshot_at_s, double kill_at_s) {
  require(snapshot_at_s > 0.0 && snapshot_at_s <= kill_at_s &&
              kill_at_s < config.horizon_s,
          "control restore drill requires 0 < snapshot_at <= kill_at < horizon");
  ControlRestoreReport rep;
  rep.uninterrupted = run_control_plane(config);

  std::vector<std::uint8_t> snapshot;
  {
    ControlWorld world(config);
    world.arm();
    world.fed().run_until(snapshot_at_s);
    sim::SnapshotWriter w;
    world.save(w);
    snapshot = w.take();
    world.fed().run_until(kill_at_s);
    // "Kill": world and federation destroyed at scope exit; everything
    // after the snapshot is discarded.
  }
  rep.snapshot_bytes = snapshot.size();

  {
    ControlWorld world(config);
    sim::SnapshotReader r(snapshot);
    world.restore(r);
    require(r.at_end(), "control snapshot has trailing bytes");
    world.fed().run_until(config.horizon_s);
    rep.restored = world.finish();
  }
  rep.identical = rep.uninterrupted == rep.restored;
  return rep;
}

ControlPartitionReport run_control_partition_drill(
    const ControlChaosConfig& config, double partition_at_s, double check_at_s,
    double heal_at_s) {
  require(config.dcs >= 2, "partition drill needs at least two datacenters");
  require(effective_shards(config) == config.dcs,
          "partition drill requires shards == dcs");
  require(partition_at_s >= 0.0 && partition_at_s < check_at_s &&
              check_at_s <= heal_at_s && heal_at_s < config.drive_until_s,
          "partition drill requires partition < check <= heal < drive_until");

  network::InterDcLinkPlan plan(config.dcs);
  plan.partition(0, 1, partition_at_s);
  ControlWorld world(config, &plan);
  world.arm();
  sim::ShardedSimulator& fed = world.fed();
  fed.run_until(check_at_s);

  ControlPartitionReport rep;
  rep.parked_at_check = fed.messages_parked();
  rep.parked_seen = rep.parked_at_check > 0;
  plan.heal(0, 1, heal_at_s);
  fed.run_until(config.horizon_s);

  rep.outcome = world.finish();
  rep.redelivered = fed.messages_redelivered();
  rep.drained = fed.messages_parked() == 0 && rep.outcome.final_pending == 0;
  rep.zero_loss =
      rep.outcome.messages_received == rep.outcome.control_messages;
  rep.fifo_ok = rep.outcome.fifo_ok;
  rep.passed = rep.parked_seen && rep.drained && rep.zero_loss &&
               rep.fifo_ok && rep.outcome.fencing_clean &&
               rep.outcome.lease_unique_ok;
  return rep;
}

ControlLeaderKillReport run_leader_kill_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed,
                                              bool with_partition) {
  require(dcs >= 3, "leader-kill drill needs >= 3 datacenters (the kill must "
                    "land mid-transition)");
  ControlChaosConfig base;
  base.dcs = dcs;
  base.threads = threads;
  base.seed = seed;
  base.controller_faults = make_leader_kill_plan();

  ControlLeaderKillReport rep;
  network::InterDcLinkPlan plan(dcs);
  if (with_partition) {
    // Isolate DC 0 (every inbound direction) through the failover window;
    // the closed window redelivers the backlog after it ends.
    for (std::size_t r = 1; r < dcs; ++r) plan.partition(r, 0, 13.0, 20.0);
  }
  const network::InterDcLinkPlan* plan_ptr =
      with_partition ? &plan : nullptr;

  rep.defended = run_control_plane(base, plan_ptr);

  ControlChaosConfig naive = base;
  naive.replicated = false;
  naive.fencing = false;
  naive.deadman = false;
  rep.naive = run_control_plane(naive, plan_ptr);

  const auto goodput_ok = [&rep](const ControlChaosOutcome& o) {
    return o.fleet_prefault_frac > 0.0 &&
           o.fleet_end_frac >= rep.goodput_threshold * o.fleet_prefault_frac;
  };
  rep.defended_clean = goodput_ok(rep.defended) &&
                       rep.defended.total_alarms == 0 &&
                       rep.defended.total_sla_violations == 0 &&
                       rep.defended.fencing_clean &&
                       rep.defended.lease_unique_ok &&
                       rep.defended.conservation_ok;
  rep.naive_violates =
      !goodput_ok(rep.naive) || rep.naive.total_alarms > 0;
  rep.gate_ok = rep.defended_clean && rep.naive_violates;
  return rep;
}

ControlSplitBrainReport run_split_brain_drill(std::size_t dcs,
                                              std::size_t threads,
                                              std::uint64_t seed) {
  require(dcs >= 2, "split-brain drill needs >= 2 datacenters");
  ControlChaosConfig config;
  config.dcs = dcs;
  config.threads = threads;
  config.seed = seed;
  config.controller_faults = make_split_brain_plan();

  ControlSplitBrainReport rep;
  rep.outcome = run_control_plane(config);
  // Stale-token rejections specifically, not replay-duplicate suppressions:
  // the woken leader's actuations must die on the token watermark.
  for (const ControlDcOutcome& dc : rep.outcome.dcs) {
    rep.double_actuations += dc.double_actuations;
    rep.stale_fenced += dc.stale_rejected;
  }
  std::uint64_t journal_rejections = 0;
  for (const ControlReplicaOutcome& r : rep.outcome.replicas) {
    journal_rejections += r.journal_rejected_stale;
  }
  rep.stale_leader_deposed =
      !rep.outcome.replicas.empty() && rep.outcome.replicas[0].depositions >= 1;
  rep.passed = rep.stale_fenced > 0 && journal_rejections > 0 &&
               rep.double_actuations == 0 && rep.stale_leader_deposed &&
               rep.outcome.lease_unique_ok && rep.outcome.fencing_clean &&
               rep.outcome.conservation_ok;
  return rep;
}

std::string make_leader_kill_plan() {
  // Permanent loss: the duration outlives the drive window, so the dead
  // leader never comes back — failover, not reboot, must save the run.
  return "ctl-crash:0@13.25+40";
}

std::string make_split_brain_plan() {
  // A long GC pause: the leader freezes mid-run, a follower takes over at
  // ~13 s, and the stale leader wakes at 16.25 still believing it leads.
  return "ctl-hang:0@10.25+6";
}

std::string make_reference_control_grid_script() {
  return "ctl-kill:region/americas@13+10";
}

}  // namespace epm::faults
