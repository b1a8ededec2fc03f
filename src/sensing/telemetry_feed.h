// TelemetryFeed: the bridge between the sensing plane and the telemetry
// store. Fault engines used to hand-roll the same four lines at every
// publication point (invalid reading -> dropout accounting, valid reading ->
// append with the degraded flag); the feed owns that idiom, and exposes the
// store's band-query API as read-backs so controllers can consume their own
// counters (e.g. a trailing served-rate mean) through the same plane they
// publish on.
#pragma once

#include <vector>

#include "sensing/sensor_plane.h"
#include "telemetry/store.h"

namespace epm::sensing {

class TelemetryFeed {
 public:
  explicit TelemetryFeed(telemetry::TelemetryStore& store) : store_(&store) {}

  /// Publishes the primary (first) reading under `key`. An invalid primary
  /// — the channel's dropout fault is active — is accounted as a dropout
  /// and nothing is stored; a degraded primary is stored and flagged.
  /// Returns true when a sample was stored.
  bool publish(telemetry::CounterKey key, const std::vector<SensorReading>& readings,
               double now_s);

  /// Trailing-window mean of a published counter over [now - window, now),
  /// answered by the store's band query (finest level covering the
  /// window). Returns 0.0 while the counter has no samples in the window.
  double recent_mean(telemetry::CounterKey key, double now_s, double window_s) const;

  telemetry::TelemetryStore& store() { return *store_; }
  const telemetry::TelemetryStore& store() const { return *store_; }

 private:
  telemetry::TelemetryStore* store_;
};

}  // namespace epm::sensing
