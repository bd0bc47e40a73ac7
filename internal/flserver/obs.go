package flserver

import "repro/internal/metrics"

// Process-wide flserver instruments, registered once and cached as package
// vars so the report hot loop and the check-in path pay exactly one atomic
// add per event — no map lookups, no locks, no allocation.
var (
	obsCheckins        = metrics.Default.Counter("fl_checkins_total")
	obsCheckinAccepted = metrics.Default.Counter("fl_checkin_accepted_total")
	obsCheckinRejected = metrics.Default.Counter("fl_checkin_rejected_total")
	obsCheckinPooled   = metrics.Default.Counter("fl_checkin_pooled_total")
	obsReportsOK       = metrics.Default.Counter("fl_reports_total")
	obsReportsRejected = metrics.Default.Counter("fl_reports_rejected_total")
	obsReportsLate     = metrics.Default.Counter("fl_reports_late_total")
	obsDevicesLost     = metrics.Default.Counter("fl_devices_lost_total")
	obsEdgeFolds       = metrics.Default.Counter("fl_edge_stripe_folds_total")
	obsEdgeFoldBytes   = metrics.Default.Counter("fl_edge_fold_bytes_total")
	obsPlanMarshals    = metrics.Default.Counter("fl_plan_marshals_total")

	// Robust-aggregation defense activity, process-wide; the per-task
	// breakdowns below ride task-labeled series resolved once per round.
	obsRobustClipped  = metrics.Default.Counter("fl_robust_clipped_total")
	obsRobustRejected = metrics.Default.Counter("fl_robust_rejected_total")
	obsRobustTrimmed  = metrics.Default.Counter("fl_robust_trimmed_total")
)

// robustTaskCounters resolves the task-labeled defense counters for one
// round (one registry lookup per round, not per report), so operators can
// see on /metrics which task's policy is clipping, rejecting, or trimming.
func robustTaskCounters(taskID string) (clipped, rejected, trimmed *metrics.Counter) {
	return metrics.Default.Counter(metrics.Label("fl_robust_clipped_total", "task", taskID)),
		metrics.Default.Counter(metrics.Label("fl_robust_rejected_total", "task", taskID)),
		metrics.Default.Counter(metrics.Label("fl_robust_trimmed_total", "task", taskID))
}
