#include "workload/client_population.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/parallel.h"
#include "core/require.h"

namespace epm::workload {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

/// One SplitMix64 stream step over a raw counter state: uniform in [0, 1).
/// Bit-identical to uniform01(SplitMix64&) in the legacy engine — the
/// stream-equivalence regression test pins this.
double unit_draw(std::uint64_t& state) {
  return static_cast<double>(SplitMix64::mix(state += SplitMix64::kGamma) >>
                             11) *
         0x1.0p-53;
}

double exponential_draw(std::uint64_t& state, double mean) {
  return -mean * std::log1p(-unit_draw(state));
}

/// Uniform double in [0, 1) from a SplitMix64 object (the shared
/// disconnect-selection stream, which must advance in id order).
double uniform01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// Multiplicative jitter factor in [1 - j, 1 + j). Callers gate the draw on
/// j > 0 (draw_on_retry_ / draw_on_cooldown_) to match the legacy stream.
double jitter_draw(std::uint64_t& state, double j) {
  return 1.0 - j + 2.0 * j * unit_draw(state);
}

// Batch ordering: LSD radix sort over 8-bit digits of a 64-bit due key.
constexpr std::size_t kDigitBits = 8;
constexpr std::size_t kRadix = std::size_t{1} << kDigitBits;
constexpr std::size_t kDigits = 64 / kDigitBits;

/// Order-preserving map of a due time onto an unsigned key. -0.0 first
/// folds into +0.0 (they compare equal, so they must tie); then the IEEE
/// flip: non-negative values get the sign bit set, negative ones have every
/// bit inverted.
std::uint64_t due_key(double due_s) {
  const auto bits = std::bit_cast<std::uint64_t>(due_s + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// One stable counting pass on the digit at `shift`: each (key, id) goes to
/// its bucket's next slot, advancing `next`.
void radix_scatter(const std::uint64_t* keys, const std::uint32_t* ids,
                   std::size_t count, std::size_t shift,
                   std::array<std::size_t, kRadix>& next,
                   std::uint64_t* out_keys, std::uint32_t* out_ids) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t slot = next[(keys[i] >> shift) & (kRadix - 1)]++;
    out_keys[slot] = keys[i];
    out_ids[slot] = ids[i];
  }
}

}  // namespace

std::string to_string(RetryBackoff backoff) {
  switch (backoff) {
    case RetryBackoff::kImmediate:
      return "immediate";
    case RetryBackoff::kFixed:
      return "fixed";
    case RetryBackoff::kExponential:
      return "exponential";
  }
  return "?";
}

RetryBackoff retry_backoff_from_string(const std::string& token) {
  if (token == "immediate") return RetryBackoff::kImmediate;
  if (token == "fixed") return RetryBackoff::kFixed;
  if (token == "exponential") return RetryBackoff::kExponential;
  throw std::invalid_argument("unknown retry backoff '" + token + "'");
}

void validate_client_population_config(const ClientPopulationConfig& config) {
  require(config.clients > 0, "ClientPopulation: no clients");
  require(config.think_time_s > 0.0,
          "ClientPopulation: think time must be positive");
  require(config.request_timeout_s > 0.0,
          "ClientPopulation: request timeout must be positive");
  require(config.reconnect_spread_s > 0.0,
          "ClientPopulation: reconnect spread must be positive");
  require(config.start_spread_s >= 0.0,
          "ClientPopulation: start spread must be non-negative");
  require(config.retry.max_attempts >= 1,
          "ClientPopulation: need at least one attempt");
  require(config.retry.base_delay_s >= 0.0 && config.retry.max_delay_s >= 0.0,
          "ClientPopulation: retry delays must be non-negative");
  require(config.retry.multiplier >= 1.0,
          "ClientPopulation: retry multiplier below 1");
  require(config.retry.jitter_frac >= 0.0 && config.retry.jitter_frac < 1.0,
          "ClientPopulation: jitter fraction outside [0, 1)");
  require(config.retry.abandon_cooldown_s >= 0.0,
          "ClientPopulation: cooldown must be non-negative");
}

std::string client_conservation_report(const ClientLedger& led,
                                       std::size_t waiting_count,
                                       std::size_t backoff_count) {
  const auto waiting = static_cast<std::uint64_t>(waiting_count);
  const auto backoff = static_cast<std::uint64_t>(backoff_count);
  std::ostringstream out;
  if (led.attempts !=
      led.served + led.rejected + led.timed_out + led.dropped + waiting) {
    out << "attempts " << led.attempts << " != served " << led.served
        << " + rejected " << led.rejected << " + timed_out " << led.timed_out
        << " + dropped " << led.dropped << " + waiting " << waiting;
    return out.str();
  }
  if (led.attempts != led.intents + led.retries) {
    out << "attempts " << led.attempts << " != intents " << led.intents
        << " + retries " << led.retries;
    return out.str();
  }
  if (led.rejected + led.timed_out !=
      led.retries + backoff + led.retry_cancelled + led.abandoned) {
    out << "failures " << led.rejected + led.timed_out << " != retries "
        << led.retries << " + backoff " << backoff << " + cancelled "
        << led.retry_cancelled << " + abandoned " << led.abandoned;
    return out.str();
  }
  if (led.intents != led.served + led.abandoned + led.disconnected_intents +
                         waiting + backoff) {
    out << "intents " << led.intents << " != served " << led.served
        << " + abandoned " << led.abandoned << " + disconnected "
        << led.disconnected_intents << " + in-flight " << waiting + backoff;
    return out.str();
  }
  return {};
}

ClientPopulation::ClientPopulation(ClientPopulationConfig config)
    : config_(config) {
  validate_client_population_config(config_);
  const std::size_t resolved =
      resolve_thread_count(static_cast<std::int64_t>(config_.threads));
  if (resolved > 1) pool_ = std::make_unique<ThreadPool>(resolved);

  // Stream layout matches the legacy engine's sequential seeder exactly:
  // seeder draw 1 seeds the disconnect-selection stream, draw id + 2 seeds
  // client id. SplitMix64 is a pure function of its counter, so client
  // seeds come from the closed form instead of a serial seeder walk.
  SplitMix64 seeder(config_.seed);
  disconnect_rng_ = SplitMix64(seeder.next());

  const std::size_t n = config_.clients;
  state_.assign(n, State::kThinking);
  attempt_.assign(n, 0);
  due_s_.assign(n, 0.0);
  rng_.resize(n);

  const RetryPolicyConfig& retry = config_.retry;
  // Pre-jitter exponential-backoff delays, computed with the identical
  // expression the legacy per-event std::pow path used (bit-equality).
  const std::size_t table_len = std::min<std::size_t>(retry.max_attempts, 64);
  delay_table_.assign(table_len + 1, 0.0);
  for (std::size_t a = 1; a <= table_len; ++a) {
    const double exponent = static_cast<double>(a - 1);
    const double raw = retry.base_delay_s * std::pow(retry.multiplier, exponent);
    delay_table_[a] = std::min(raw, retry.max_delay_s);
  }
  draw_on_retry_ =
      retry.backoff != RetryBackoff::kImmediate && retry.jitter_frac > 0.0;
  draw_on_cooldown_ = retry.jitter_frac > 0.0;

  const double spread = config_.start_spread_s;
  for_shards([&](std::size_t s) {
    const std::size_t hi = shard_end(s);
    for (std::size_t id = shard_begin(s); id < hi; ++id) {
      rng_[id] = SplitMix64::mix(
          config_.seed + (static_cast<std::uint64_t>(id) + 2) *
                             SplitMix64::kGamma);
      due_s_[id] = spread > 0.0 ? exponential_draw(rng_[id], spread) : 0.0;
    }
  });
}

ClientPopulation::~ClientPopulation() = default;

template <typename Fn>
void ClientPopulation::for_shards(Fn&& fn) {
  if (pool_) {
    pool_->parallel_for(kShards, [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end; ++s) fn(s);
    });
  } else {
    for (std::size_t s = 0; s < kShards; ++s) fn(s);
  }
}

void ClientPopulation::apply_tally(const Tally& t) {
  ledger_.intents += t.intents;
  ledger_.attempts += t.attempts;
  ledger_.retries += t.retries;
  ledger_.timed_out += t.timed_out;
  ledger_.abandoned += t.abandoned;
  ledger_.dropped += t.dropped;
  ledger_.retry_cancelled += t.retry_cancelled;
  ledger_.disconnected_intents += t.disconnected_intents;
  ledger_.disconnects += t.disconnects;
  waiting_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(waiting_count_) + t.waiting_delta);
  backoff_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(backoff_count_) + t.backoff_delta);
  lost_count_ = static_cast<std::size_t>(
      static_cast<std::int64_t>(lost_count_) + t.lost_delta);
}

const std::vector<std::uint32_t>& ClientPopulation::collect_due(double t0,
                                                                double dt) {
  require(dt > 0.0, "ClientPopulation: epoch must be positive");
  batch_.clear();
  const double end = t0 + dt;

  // Shard s fills its own id range of the two candidate columns, so workers
  // write disjoint spans (the arena is not thread-safe; both columns come
  // out of it here, on the control thread).
  arena_.reset();
  const std::size_t n = config_.clients;
  std::uint64_t* keys = arena_.alloc<std::uint64_t>(n);
  std::uint32_t* ids = arena_.alloc<std::uint32_t>(n);
  std::array<std::size_t, kShards> counts{};
  std::array<Tally, kShards> tallies{};

  for_shards([&](std::size_t s) {
    Tally& t = tallies[s];
    const std::size_t lo = shard_begin(s);
    const std::size_t hi = shard_end(s);
    std::size_t found = lo;
    for (std::size_t id = lo; id < hi; ++id) {
      const State st = state_[id];
      if (st == State::kWaiting || st == State::kLost) continue;
      const double due = due_s_[id];
      if (due >= end) continue;
      // A thinking or cooled-down client starts a fresh intent; a backoff
      // client re-offers its failed one.
      if (st == State::kBackoff) {
        ++t.retries;
        --t.backoff_delta;
        ++attempt_[id];
      } else {
        attempt_[id] = 1;
        ++t.intents;
      }
      ++t.attempts;
      ++t.waiting_delta;
      // In limbo until the caller answers with on_rejected/on_admitted; the
      // attempt is in flight, so it counts as waiting with no deadline yet.
      state_[id] = State::kWaiting;
      due_s_[id] = kNever;
      keys[found] = due_key(due);
      ids[found] = static_cast<std::uint32_t>(id);
      ++found;
    }
    counts[s] = found - lo;
  });

  std::size_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    apply_tally(tallies[s]);
    total += counts[s];
  }
  if (total == 0) return batch_;

  // The shard spans concatenate to ascending id order, so a stable sort on
  // the due key alone yields the contractual (due, id) batch order — the
  // property suite checksums it, so this is not cosmetic. LSD radix, one
  // byte per pass; one histogram pass counts every digit, and a digit with
  // one bucket holding the whole batch (the high bytes an epoch's dues
  // share) cannot reorder anything, so its pass is skipped.
  std::array<std::array<std::size_t, kRadix>, kDigits> hist{};
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::uint64_t* k = keys + shard_begin(s);
    for (std::size_t i = 0; i < counts[s]; ++i) {
      for (std::size_t d = 0; d < kDigits; ++d) {
        ++hist[d][(k[i] >> (d * kDigitBits)) & (kRadix - 1)];
      }
    }
  }
  std::array<std::size_t, kDigits> passes{};
  std::size_t n_passes = 0;
  for (std::size_t d = 0; d < kDigits; ++d) {
    if (std::ranges::find(hist[d], total) == hist[d].end()) passes[n_passes++] = d;
  }
  // When every due is equal, one pass on a constant digit still gathers the
  // shard spans into the batch, in scan order.
  if (n_passes == 0) passes[n_passes++] = 0;

  // The first pass scatters straight from the shard spans into the sort
  // buffer; later passes ping-pong between it and the (now free) front of
  // the candidate columns. The last pass writes its ids into the batch.
  if (sort_keys_.size() < total) {
    sort_keys_.resize(total);
    sort_ids_.resize(total);
  }
  batch_.resize(total);
  const std::uint64_t* src_keys = keys;
  const std::uint32_t* src_ids = ids;
  std::array<std::size_t, kRadix> offsets;
  for (std::size_t p = 0; p < n_passes; ++p) {
    const std::size_t shift = passes[p] * kDigitBits;
    std::size_t sum = 0;
    for (std::size_t b = 0; b < kRadix; ++b) {
      offsets[b] = sum;
      sum += hist[passes[p]][b];
    }
    std::uint64_t* dst_keys = p % 2 == 0 ? sort_keys_.data() : keys;
    std::uint32_t* dst_ids = p + 1 == n_passes ? batch_.data()
                             : p % 2 == 0      ? sort_ids_.data()
                                               : ids;
    if (p == 0) {
      for (std::size_t s = 0; s < kShards; ++s) {
        radix_scatter(keys + shard_begin(s), ids + shard_begin(s), counts[s],
                      shift, offsets, dst_keys, dst_ids);
      }
    } else {
      radix_scatter(src_keys, src_ids, total, shift, offsets, dst_keys,
                    dst_ids);
    }
    src_keys = dst_keys;
    src_ids = dst_ids;
  }
  return batch_;
}

double ClientPopulation::base_backoff_s(std::uint32_t attempt) const {
  const RetryPolicyConfig& retry = config_.retry;
  switch (retry.backoff) {
    case RetryBackoff::kImmediate:
      return 0.0;
    case RetryBackoff::kFixed:
      return retry.base_delay_s;
    case RetryBackoff::kExponential: {
      if (attempt < delay_table_.size()) return delay_table_[attempt];
      const double exponent = static_cast<double>(attempt - 1);
      const double raw = retry.base_delay_s * std::pow(retry.multiplier, exponent);
      return std::min(raw, retry.max_delay_s);
    }
  }
  return 0.0;
}

void ClientPopulation::fail_attempt(std::uint32_t id, double now_s,
                                    Tally& t) {
  const double j = config_.retry.jitter_frac;
  --t.waiting_delta;
  if (attempt_[id] >= config_.retry.max_attempts) {
    ++t.abandoned;
    if (config_.retry.abandon_cooldown_s > 0.0) {
      const double jit = draw_on_cooldown_ ? jitter_draw(rng_[id], j) : 1.0;
      state_[id] = State::kCooldown;
      due_s_[id] = now_s + config_.retry.abandon_cooldown_s * jit;
    } else {
      state_[id] = State::kLost;
      due_s_[id] = kNever;
      ++t.lost_delta;
    }
    return;
  }
  const double jit = draw_on_retry_ ? jitter_draw(rng_[id], j) : 1.0;
  state_[id] = State::kBackoff;
  due_s_[id] = now_s + base_backoff_s(attempt_[id]) * jit;
  ++t.backoff_delta;
}

void ClientPopulation::on_rejected(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  ensure(state_[id] == State::kWaiting,
         "ClientPopulation: rejected a client with no attempt in flight");
  ++ledger_.rejected;
  Tally t;
  fail_attempt(id, now_s, t);
  apply_tally(t);
}

void ClientPopulation::on_admitted(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  ensure(state_[id] == State::kWaiting,
         "ClientPopulation: admitted a client with no attempt in flight");
  due_s_[id] = now_s + config_.request_timeout_s;
}

void ClientPopulation::on_served(std::uint32_t id, double now_s) {
  require(id < state_.size(), "ClientPopulation: client id out of range");
  if (state_[id] != State::kWaiting) {
    // The client gave up on this attempt long ago; the service's work on it
    // was wasted — the defining loss of a retry storm.
    ++ledger_.stale_served;
    return;
  }
  ++ledger_.served;
  --waiting_count_;
  attempt_[id] = 0;
  state_[id] = State::kThinking;
  due_s_[id] = now_s + exponential_draw(rng_[id], config_.think_time_s);
}

void ClientPopulation::on_served_batch(const std::uint32_t* ids,
                                       std::size_t count, double now_s) {
  if (count == 0) return;
  // `ids` must not point into this population's arena: the classify pass
  // below resets it. (The retry-storm driver keeps cohorts in its own.)
  arena_.reset();
  std::uint32_t* fresh = arena_.alloc<std::uint32_t>(count);
  std::size_t n_fresh = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = ids[i];
    require(id < state_.size(), "ClientPopulation: client id out of range");
    if (state_[id] != State::kWaiting) {
      ++ledger_.stale_served;
      continue;
    }
    ++ledger_.served;
    attempt_[id] = 0;
    state_[id] = State::kThinking;
    fresh[n_fresh++] = id;
  }
  waiting_count_ -= n_fresh;
  // Think-time draws as one branch-free block over the raw counter states.
  const double mean = config_.think_time_s;
  for (std::size_t i = 0; i < n_fresh; ++i) {
    const std::uint32_t id = fresh[i];
    due_s_[id] = now_s + exponential_draw(rng_[id], mean);
  }
}

void ClientPopulation::expire_timeouts(double now_s) {
  std::array<Tally, kShards> tallies{};
  for_shards([&](std::size_t s) {
    Tally& t = tallies[s];
    const std::size_t hi = shard_end(s);
    for (std::size_t id = shard_begin(s); id < hi; ++id) {
      // Limbo clients (due = inf) and admitted clients with a live deadline
      // both fail the due test; only expired waiters fall through.
      if (state_[id] != State::kWaiting || due_s_[id] > now_s) continue;
      ++t.timed_out;
      fail_attempt(static_cast<std::uint32_t>(id), now_s, t);
    }
  });
  for (const Tally& t : tallies) apply_tally(t);
}

void ClientPopulation::disconnect_client(std::uint32_t id, double now_s) {
  Tally t;
  switch (state_[id]) {
    case State::kWaiting:
      ++t.dropped;
      ++t.disconnected_intents;
      --t.waiting_delta;
      break;
    case State::kBackoff:
      ++t.retry_cancelled;
      ++t.disconnected_intents;
      --t.backoff_delta;
      break;
    case State::kThinking:
    case State::kCooldown:
      break;
    case State::kLost:
      return;  // gone for good; no session to drop
  }
  ++t.disconnects;
  attempt_[id] = 0;
  // Session re-establishment: reconnects arrive with exponential spread, so
  // the aggregate login surge decays like the Fig. 3 flash-crowd spikes.
  state_[id] = State::kThinking;
  due_s_[id] = now_s + exponential_draw(rng_[id], config_.reconnect_spread_s);
  apply_tally(t);
}

void ClientPopulation::disconnect_all(double now_s) {
  std::array<Tally, kShards> tallies{};
  for_shards([&](std::size_t s) {
    Tally& t = tallies[s];
    const std::size_t hi = shard_end(s);
    for (std::size_t id = shard_begin(s); id < hi; ++id) {
      switch (state_[id]) {
        case State::kWaiting:
          ++t.dropped;
          ++t.disconnected_intents;
          --t.waiting_delta;
          break;
        case State::kBackoff:
          ++t.retry_cancelled;
          ++t.disconnected_intents;
          --t.backoff_delta;
          break;
        case State::kThinking:
        case State::kCooldown:
          break;
        case State::kLost:
          continue;  // gone for good; no session to drop
      }
      ++t.disconnects;
      attempt_[id] = 0;
      state_[id] = State::kThinking;
      due_s_[id] =
          now_s + exponential_draw(rng_[id], config_.reconnect_spread_s);
    }
  });
  for (const Tally& t : tallies) apply_tally(t);
}

void ClientPopulation::disconnect_fraction(double fraction, double now_s) {
  require(fraction >= 0.0 && fraction <= 1.0,
          "ClientPopulation: disconnect fraction outside [0, 1]");
  if (fraction >= 1.0) {
    disconnect_all(now_s);  // no draws: the full-outage path stays stream-stable
    return;
  }
  // Serial by necessity: the selection draws come from one shared stream
  // that must advance in id order to stay bit-compatible.
  for (std::uint32_t id = 0; id < state_.size(); ++id) {
    if (uniform01(disconnect_rng_) < fraction) {
      disconnect_client(id, now_s);
    }
  }
}

bool ClientPopulation::conservation_ok() const {
  return conservation_report().empty();
}

std::string ClientPopulation::conservation_report() const {
  return client_conservation_report(ledger_, waiting_count_, backoff_count_);
}

}  // namespace epm::workload
