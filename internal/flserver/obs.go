package flserver

import "repro/internal/obs"

// Process-wide flserver instruments, registered once and cached as package
// vars so the report hot loop and the check-in path pay exactly one atomic
// add per event — no map lookups, no locks, no allocation.
var (
	obsCheckins        = obs.Default.Counter("fl_checkins_total")
	obsCheckinAccepted = obs.Default.Counter("fl_checkin_accepted_total")
	obsCheckinRejected = obs.Default.Counter("fl_checkin_rejected_total")
	obsCheckinPooled   = obs.Default.Counter("fl_checkin_pooled_total")
	obsReportsOK       = obs.Default.Counter("fl_reports_total")
	obsReportsRejected = obs.Default.Counter("fl_reports_rejected_total")
	obsReportsLate     = obs.Default.Counter("fl_reports_late_total")
	obsDevicesLost     = obs.Default.Counter("fl_devices_lost_total")
	obsEdgeFolds       = obs.Default.Counter("fl_edge_stripe_folds_total")
	obsEdgeFoldBytes   = obs.Default.Counter("fl_edge_fold_bytes_total")
	obsPlanMarshals    = obs.Default.Counter("fl_plan_marshals_total")

	// Robust-aggregation defense activity, process-wide; the per-task
	// breakdowns below ride task-labeled series resolved once per round.
	obsRobustClipped  = obs.Default.Counter("fl_robust_clipped_total")
	obsRobustRejected = obs.Default.Counter("fl_robust_rejected_total")
	obsRobustTrimmed  = obs.Default.Counter("fl_robust_trimmed_total")
)

// robustTaskCounters resolves the task-labeled defense counters for one
// round (one registry lookup per round, not per report), so operators can
// see on /metrics which task's policy is clipping, rejecting, or trimming.
func robustTaskCounters(taskID string) (clipped, rejected, trimmed *obs.Counter) {
	return obs.Default.Counter(obs.Label("fl_robust_clipped_total", "task", taskID)),
		obs.Default.Counter(obs.Label("fl_robust_rejected_total", "task", taskID)),
		obs.Default.Counter(obs.Label("fl_robust_trimmed_total", "task", taskID))
}
