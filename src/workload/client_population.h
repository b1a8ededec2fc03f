// Closed-loop client population: load that fights back.
//
// Every other workload in this library is open-loop — Poisson or trace
// arrivals that vanish when dropped. Real users do not vanish (paper §3:
// Messenger login storms, the Animoto flash crowd): a failed request is
// re-offered as a retry, a dropped session comes back as a reconnect, and
// the re-offered load is exactly what melts an elastic facility after an
// outage clears. This model closes the loop: each logical client issues a
// request, waits on a per-request timeout, retries under a configurable
// backoff policy (immediate / fixed / exponential, with deterministic
// SplitMix64 jitter and a capped attempt budget), and abandons when the
// budget runs out. A fault-injected outage (faults::kUtilityOutage or a
// server-crash clear) converts, via disconnect_all / disconnect_fraction,
// into a surge of session re-establishment load whose exponential-spread
// arrival matches the Fig. 3 login-spike shape.
//
// The engine is the vectorized epoch sweep introduced for the 10M-client
// regime: client state lives in flat SoA arrays (state / attempt / due /
// raw SplitMix64 counter), each epoch operation is a linear sweep over
// fixed client-range shards (parallelizable on a core::ThreadPool, merged
// in deterministic shard order, bit-identical at any thread count), RNG is
// drawn as branch-free block transforms over the raw counter states, and
// per-epoch scratch comes from an EpochArena instead of the heap. The
// per-event heap engine it replaced is kept in the epm_reference library
// (linked by tests and benches only) as the A/B baseline; the equivalence
// suite asserts both engines produce bit-identical attempt streams and
// ledgers.
//
// Everything is per-client and seeded, so a population replayed against the
// same service responses reproduces the same attempt stream bit-for-bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/rng.h"

namespace epm {
class ThreadPool;
}

namespace epm::workload {

enum class RetryBackoff {
  kImmediate,    ///< retry on the next opportunity (no deliberate delay)
  kFixed,        ///< constant base_delay_s between attempts
  kExponential,  ///< base_delay_s * multiplier^(attempt-1), capped
};

/// Short stable token ("immediate" / "fixed" / "exponential").
std::string to_string(RetryBackoff backoff);
RetryBackoff retry_backoff_from_string(const std::string& token);

struct RetryPolicyConfig {
  RetryBackoff backoff = RetryBackoff::kExponential;
  double base_delay_s = 2.0;
  double multiplier = 2.0;
  double max_delay_s = 60.0;
  /// Multiplicative jitter: delays scale by uniform [1 - j, 1 + j).
  double jitter_frac = 0.5;
  /// Attempts per intent (first try + retries); exhausted => abandon.
  std::size_t max_attempts = 8;
  /// Abandoned clients come back as a fresh intent after this long;
  /// 0 = abandoned clients never return.
  double abandon_cooldown_s = 0.0;
};

struct ClientPopulationConfig {
  std::size_t clients = 20000;
  /// Mean exponential think time between completed interactions.
  double think_time_s = 40.0;
  /// Client-side deadline per attempt; a response slower than this is
  /// worthless to the client (it has already scheduled a retry).
  double request_timeout_s = 4.0;
  /// Mean exponential delay of post-disconnect reconnect attempts. The
  /// aggregate reconnect rate therefore decays exponentially — the Fig. 3
  /// flash-crowd login-spike shape.
  double reconnect_spread_s = 60.0;
  /// Mean of the exponential initial think phase. Clients launch mid-think;
  /// with start_spread_s == think_time_s the superposed arrival process is
  /// stationary from t = 0 (exponential residuals stay exponential). A
  /// uniform start window would instead synchronize second requests into a
  /// mid-warmup surge ~2x the steady rate.
  double start_spread_s = 40.0;
  RetryPolicyConfig retry;
  std::uint64_t seed = 7;
  /// Worker threads for the sharded epoch sweeps: 1 (default) sweeps
  /// serially, 0 resolves EPM_THREADS / hardware_concurrency, N >= 2 runs
  /// the fixed shard partition on an internal ThreadPool. Results are
  /// bit-identical at every value.
  std::size_t threads = 1;
};

/// Lifetime counters. Attempts and intents are conserved (see
/// conservation_ok); the identities are asserted by the property suite and
/// by the retry-storm runner's invariant monitor every epoch.
struct ClientLedger {
  std::uint64_t intents = 0;        ///< fresh request intents (first attempts)
  std::uint64_t attempts = 0;       ///< requests issued (first + retries)
  std::uint64_t retries = 0;        ///< attempts beyond an intent's first
  std::uint64_t served = 0;         ///< fresh successes (intent completed)
  std::uint64_t stale_served = 0;   ///< server completions after the client gave up
  std::uint64_t rejected = 0;       ///< fast failures (admission / queue / breaker)
  std::uint64_t timed_out = 0;      ///< attempts that hit the client deadline
  std::uint64_t dropped = 0;        ///< in-flight attempts severed by a disconnect
  std::uint64_t abandoned = 0;      ///< intents dropped after max_attempts
  std::uint64_t retry_cancelled = 0;///< pending retries severed by a disconnect
  std::uint64_t disconnected_intents = 0;  ///< open intents severed by a disconnect
  std::uint64_t disconnects = 0;    ///< client-sessions dropped by outages
};

/// Throws std::invalid_argument on an unusable configuration (shared by the
/// sweep engine and the reference heap engine).
void validate_client_population_config(const ClientPopulationConfig& config);

/// Human-readable account of the first violated conservation identity over
/// a ledger plus the instantaneous waiting/backoff occupancy; "" when all
/// four identities hold. Shared by both engines.
std::string client_conservation_report(const ClientLedger& ledger,
                                       std::size_t waiting,
                                       std::size_t backoff);

/// A deterministic population of logical clients driven at epoch
/// granularity by a service loop:
///
///   1. collect_due(t, dt)      -> attempt batch for this epoch
///   2. on_rejected/on_admitted -> admission verdict per attempt
///   3. (service drains queue)  -> on_served / on_served_batch per completion
///   4. expire_timeouts(t + dt) -> client deadlines fire, retries scheduled
class ClientPopulation {
 public:
  /// Completion cohorts can be delivered as one batch per epoch
  /// (on_served_batch), letting the driver schedule a single kernel event
  /// per cohort instead of one per completion.
  static constexpr bool kBatchServe = true;

  /// Fixed client-range shard partition for the parallel sweeps. Constant —
  /// never derived from the thread count — so per-shard work, and therefore
  /// every merged result, is identical at 1, 2, or 64 threads.
  static constexpr std::size_t kShards = 64;

  explicit ClientPopulation(ClientPopulationConfig config);
  ~ClientPopulation();
  ClientPopulation(const ClientPopulation&) = delete;
  ClientPopulation& operator=(const ClientPopulation&) = delete;

  /// Clients whose next action falls in [t0, t0 + dt), in deterministic
  /// (due time, id) order. Each returned id has issued one attempt at t0;
  /// the caller must answer every id with on_rejected or on_admitted.
  const std::vector<std::uint32_t>& collect_due(double t0, double dt);

  /// Fast failure (admission control / full queue / open breaker / dark
  /// service): the client backs off per policy or abandons.
  void on_rejected(std::uint32_t id, double now_s);
  /// The request entered the service queue; the client now waits until
  /// now_s + request_timeout_s.
  void on_admitted(std::uint32_t id, double now_s);
  /// Service completion. Fresh (intent completed, client thinks again) if
  /// the client is still waiting; stale work otherwise.
  void on_served(std::uint32_t id, double now_s);
  /// Batch completion: equivalent to on_served(ids[i], now_s) for i in
  /// order, with the think-time draws performed as one RNG block.
  void on_served_batch(const std::uint32_t* ids, std::size_t count,
                       double now_s);

  /// Fires client deadlines: waiting clients whose timeout passed fail the
  /// attempt and back off per policy. Call once per epoch, after draining.
  void expire_timeouts(double now_s);

  /// Outage onset: every connected client's session drops. In-flight
  /// attempts are severed, pending retries cancelled, and every client
  /// schedules a session re-establishment attempt now_s + Exp(spread) out.
  void disconnect_all(double now_s);
  /// Same, for a deterministic (seeded) subset of clients.
  void disconnect_fraction(double fraction, double now_s);

  const ClientLedger& ledger() const { return ledger_; }
  const ClientPopulationConfig& config() const { return config_; }

  std::size_t waiting_count() const { return waiting_count_; }
  std::size_t backoff_count() const { return backoff_count_; }
  /// Clients out of the loop entirely (abandoned with no cooldown).
  std::size_t lost_count() const { return lost_count_; }
  /// Open intents at this instant: waiting on a response or in backoff.
  std::size_t in_flight() const { return waiting_count_ + backoff_count_; }

  /// Retry-budget conservation. All four identities must hold at any epoch
  /// boundary (after expire_timeouts):
  ///   attempts == served + rejected + timed_out + dropped + waiting
  ///   attempts == intents + retries
  ///   rejected + timed_out == retries + backoff + retry_cancelled + abandoned
  ///   intents  == served + abandoned + disconnected_intents + in_flight
  bool conservation_ok() const;
  /// Human-readable account of the first violated identity; "" when ok.
  std::string conservation_report() const;

 private:
  enum class State : std::uint8_t {
    kThinking,  ///< between intents; due_s = next intent time
    kWaiting,   ///< attempt in the service; due_s = client deadline
    kBackoff,   ///< failed attempt; due_s = retry time
    kCooldown,  ///< abandoned; due_s = return time (new intent)
    kLost,      ///< abandoned forever (no cooldown)
  };

  /// (due, id) candidate produced by the collect sweep; spans of these are
  /// sorted per shard and k-way merged into the global batch order.
  struct Candidate {
    double due_s;
    std::uint32_t id;
  };

  /// Per-shard counter ledger for one sweep, merged in shard order.
  struct Tally {
    std::uint64_t intents = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t timed_out = 0;
    std::uint64_t abandoned = 0;
    std::int64_t waiting_delta = 0;
    std::int64_t backoff_delta = 0;
    std::int64_t lost_delta = 0;
    std::uint64_t dropped = 0;
    std::uint64_t retry_cancelled = 0;
    std::uint64_t disconnected_intents = 0;
    std::uint64_t disconnects = 0;
  };

  std::size_t shard_begin(std::size_t shard) const {
    return shard * config_.clients / kShards;
  }
  std::size_t shard_end(std::size_t shard) const {
    return (shard + 1) * config_.clients / kShards;
  }

  /// Runs fn(shard) for every shard — on the pool when one exists, serially
  /// otherwise. Shards touch disjoint client ranges and disjoint tally
  /// slots, so the parallel execution is race-free by construction.
  template <typename Fn>
  void for_shards(Fn&& fn);

  /// Backoff delay (before jitter) after failing attempt `attempt` — the
  /// table/mask replacement for the per-event std::pow in the legacy path.
  double base_backoff_s(std::uint32_t attempt) const;
  /// Attempt failure shared by the timeout sweep and on_rejected; updates
  /// the given tally instead of global counters.
  void fail_attempt(std::uint32_t id, double now_s, Tally& tally);
  void apply_tally(const Tally& tally);
  void disconnect_client(std::uint32_t id, double now_s);

  ClientPopulationConfig config_;
  std::unique_ptr<ThreadPool> pool_;  ///< null when sweeping serially
  EpochArena arena_;

  // Client state, structure-of-arrays: every sweep touches one field across
  // many clients, so parallel arrays stream linearly. rng_ holds the raw
  // SplitMix64 counter per client; draws advance it by kGamma and mix,
  // which block loops do branch-free (and bit-identically to a SplitMix64
  // object — the stream-equivalence regression test pins this).
  std::vector<State> state_;
  std::vector<std::uint32_t> attempt_;
  std::vector<double> due_s_;
  std::vector<std::uint64_t> rng_;

  /// delay_table_[a] = capped pre-jitter delay after failing attempt a
  /// (exponential policy); attempts past the table fall back to the same
  /// closed form.
  std::vector<double> delay_table_;
  bool draw_on_retry_ = false;     ///< retry backoff consumes a jitter draw
  bool draw_on_cooldown_ = false;  ///< abandon-to-cooldown consumes one

  std::vector<std::uint32_t> batch_;
  ClientLedger ledger_;
  SplitMix64 disconnect_rng_{0};
  std::size_t waiting_count_ = 0;
  std::size_t backoff_count_ = 0;
  std::size_t lost_count_ = 0;
};

}  // namespace epm::workload
