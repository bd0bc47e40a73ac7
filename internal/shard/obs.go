package shard

import "repro/internal/metrics"

// Process-wide shard instruments. The selector-side ones travel to the
// coordinator inside TelemetrySnapshot frames, where they reappear on the
// aggregated /metrics with a shard="N" label; the coordinator-side ones
// are per-shard series the coordinator derives itself from seal and rate
// traffic.
var (
	// Selector side.
	obsSealsShipped  = metrics.Default.Counter("fl_seals_shipped_total")
	obsSealsDropped  = metrics.Default.Counter("fl_seals_dropped_total")
	obsSealSeconds   = metrics.Default.Summary("fl_seal_seconds")
	obsSnapshotsSent = metrics.Default.Counter("fl_telemetry_snapshots_total")
	obsCoordinatorUp = metrics.Default.Gauge("fl_coordinator_link_up")
	// Coordinator side.
	obsSealsReceived = metrics.Default.Counter("fl_seals_received_total")
	obsBytesUpstream = metrics.Default.Counter("fl_seal_bytes_upstream_total")
)
