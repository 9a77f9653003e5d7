// Bundles threading the observability layer through the pipeline.
//
// `Observability` is the user-facing handle: a metrics registry and/or a
// trace sink (both optional, both non-owning) plus an optional clock.  A
// default-constructed bundle disables everything; instrumented code guards
// each site with a pointer test, so the disabled cost is near zero and the
// findings are byte-identical either way (observability only reads).
//
// `ChainObs` is the pre-resolved per-run form the chain hot path consumes:
// the registry name lookups happen once (when the executor or caller builds
// it), not per observation, so `--jobs 8` workers share only relaxed
// sharded-atomic increments.
#pragma once

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hdiff::obs {

struct Observability {
  Registry* metrics = nullptr;  ///< null = no metrics collection
  TraceSink* trace = nullptr;   ///< null = no tracing
  const Clock* clock = nullptr;  ///< timing source; null = steady clock

  bool enabled() const noexcept { return metrics || trace; }
  const Clock& effective_clock() const noexcept {
    return clock ? *clock : steady_clock_instance();
  }
};

/// Per-run chain hooks: trace sink plus pre-registered latency histograms
/// for the whole observation and each hop class.  Build once per run with
/// `from()`; pass null to `Chain::observe` to disable.
struct ChainObs {
  TraceSink* trace = nullptr;
  Histogram* observe_us = nullptr;  ///< whole three-step observation
  Histogram* forward_us = nullptr;  ///< step 1, send->proxy
  Histogram* replay_us = nullptr;   ///< step 2, forward->backend (per proxy)
  Histogram* direct_us = nullptr;   ///< step 3, direct back-end probes
  const Clock* clock = nullptr;

  bool active() const noexcept { return trace || observe_us; }
  std::uint64_t now() const noexcept { return clock->now_us(); }

  static ChainObs from(const Observability& o) {
    ChainObs c;
    c.trace = o.trace;
    c.clock = &o.effective_clock();
    if (o.metrics) {
      o.metrics->help("hdiff_chain_observe_micros",
                      "Whole differential observation latency (us)");
      c.observe_us = &o.metrics->histogram("hdiff_chain_observe_micros");
      c.forward_us = &o.metrics->histogram("hdiff_chain_forward_micros");
      c.replay_us = &o.metrics->histogram("hdiff_chain_replay_micros");
      c.direct_us = &o.metrics->histogram("hdiff_chain_direct_micros");
    }
    return c;
  }
};

/// Per-run hooks for connection-level stream observation (net/stream.h)
/// and the stream detectors (src/stream): one registry lookup per run,
/// relaxed increments per stream.  The counters ride worker registry
/// snapshots into the merged `hdiff serve` /metrics view like every other
/// hdiff_* metric.
struct StreamObs {
  TraceSink* trace = nullptr;
  Histogram* observe_us = nullptr;  ///< hdiff_stream_observe_micros
  Histogram* messages = nullptr;    ///< hdiff_stream_messages_per_connection
  Counter* streams = nullptr;       ///< hdiff_stream_observations_total
  Counter* boundary_desync = nullptr;  ///< hdiff_stream_boundary_desync_total
  Counter* queue_poison = nullptr;     ///< hdiff_stream_queue_poison_total
  Counter* leftover_divergence =
      nullptr;  ///< hdiff_stream_leftover_divergence_total
  const Clock* clock = nullptr;

  bool active() const noexcept { return trace || observe_us || streams; }
  std::uint64_t now() const noexcept { return clock->now_us(); }

  static StreamObs from(const Observability& o) {
    StreamObs s;
    s.trace = o.trace;
    s.clock = &o.effective_clock();
    if (o.metrics) {
      o.metrics->help("hdiff_stream_observe_micros",
                      "Whole stream observation latency (us)");
      o.metrics->help("hdiff_stream_messages_per_connection",
                      "Messages delivered per observed connection");
      o.metrics->help("hdiff_stream_boundary_desync_total",
                      "Stream findings: implementations split the stream at "
                      "different request boundaries");
      o.metrics->help("hdiff_stream_queue_poison_total",
                      "Stream findings: forwarded-request vs response-queue "
                      "mismatch on a proxy->backend connection");
      o.metrics->help("hdiff_stream_observations_total",
                      "Request streams observed end to end");
      o.metrics->help("hdiff_stream_leftover_divergence_total",
                      "Stream findings: implementations end the stream with "
                      "different stranded buffer bytes");
      s.observe_us = &o.metrics->histogram("hdiff_stream_observe_micros");
      s.messages =
          &o.metrics->histogram("hdiff_stream_messages_per_connection");
      s.streams = &o.metrics->counter("hdiff_stream_observations_total");
      s.boundary_desync =
          &o.metrics->counter("hdiff_stream_boundary_desync_total");
      s.queue_poison = &o.metrics->counter("hdiff_stream_queue_poison_total");
      s.leftover_divergence =
          &o.metrics->counter("hdiff_stream_leftover_divergence_total");
    }
    return s;
  }
};

/// Pre-resolved hooks for the `hdiff serve` supervisor (serve/supervisor.h):
/// worker lifecycle counters plus live gauges the /metrics endpoint exports.
/// One registry lookup per daemon construction, relaxed updates per event.
struct ServeObs {
  TraceSink* trace = nullptr;
  Counter* rounds = nullptr;      ///< hdiff_serve_rounds_total
  Counter* spawns = nullptr;      ///< hdiff_serve_worker_spawns_total
  Counter* deaths = nullptr;      ///< hdiff_serve_worker_deaths_total
  Counter* restarts = nullptr;    ///< hdiff_serve_worker_restarts_total
  Counter* hangs = nullptr;       ///< hdiff_serve_worker_hangs_total
  Counter* quarantines = nullptr;  ///< hdiff_serve_shard_quarantines_total
  Counter* heartbeats = nullptr;   ///< hdiff_serve_heartbeats_total
  Gauge* round = nullptr;          ///< hdiff_serve_round
  Gauge* workers_healthy = nullptr;    ///< hdiff_serve_workers_healthy
  Gauge* shards_quarantined = nullptr;  ///< hdiff_serve_shards_quarantined

  bool active() const noexcept { return trace || rounds; }

  static ServeObs from(const Observability& o) {
    ServeObs s;
    s.trace = o.trace;
    if (o.metrics) {
      o.metrics->help("hdiff_serve_rounds_total",
                      "Campaign rounds committed by the serve supervisor");
      o.metrics->help("hdiff_serve_worker_deaths_total",
                      "Worker processes that exited before publishing");
      o.metrics->help("hdiff_serve_heartbeat_age_ms",
                      "Milliseconds since each live worker's last heartbeat");
      o.metrics->help("hdiff_serve_control_requests_total",
                      "Control-plane HTTP requests by endpoint and status");
      s.rounds = &o.metrics->counter("hdiff_serve_rounds_total");
      s.spawns = &o.metrics->counter("hdiff_serve_worker_spawns_total");
      s.deaths = &o.metrics->counter("hdiff_serve_worker_deaths_total");
      s.restarts = &o.metrics->counter("hdiff_serve_worker_restarts_total");
      s.hangs = &o.metrics->counter("hdiff_serve_worker_hangs_total");
      s.quarantines =
          &o.metrics->counter("hdiff_serve_shard_quarantines_total");
      s.heartbeats = &o.metrics->counter("hdiff_serve_heartbeats_total");
      s.round = &o.metrics->gauge("hdiff_serve_round");
      s.workers_healthy = &o.metrics->gauge("hdiff_serve_workers_healthy");
      s.shards_quarantined =
          &o.metrics->gauge("hdiff_serve_shards_quarantined");
    }
    return s;
  }
};

}  // namespace hdiff::obs
