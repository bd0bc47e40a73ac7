// Package protocol defines the wire messages of the FL protocol (Sec. 2):
// device check-in, plan/checkpoint delivery, update reporting, and the
// pace-steering hints that tell rejected devices when to come back. The
// same message types flow over the in-memory transport (simulation, tests)
// and the TCP transport (cmd/flserver).
package protocol

import "time"

// CheckinRequest announces a device's readiness to run an FL task for a
// population (Sec. 2.2, Selection).
type CheckinRequest struct {
	DeviceID       string
	Population     string
	RuntimeVersion int
	// AttestationToken proves the device is genuine (Sec. 3, Attestation).
	AttestationToken []byte
}

// CheckinResponse either admits the device into a round (carrying the plan
// and global checkpoint) or rejects it with a reconnect hint.
type CheckinResponse struct {
	Accepted bool
	// RetryAfter is the pace-steering suggestion for rejected devices
	// ("come back later!").
	RetryAfter time.Duration
	// Reason is a human-readable rejection reason for analytics.
	Reason string

	// The fields below are set for accepted devices (Configuration phase).
	TaskID string
	Round  int64
	// Plan is the marshaled, version-matched FL plan.
	Plan []byte
	// Checkpoint is the marshaled global model checkpoint.
	Checkpoint []byte
	// ReportDeadline caps the device's participation time (Fig. 8).
	ReportDeadline time.Duration
}

// ReportRequest carries a device's update back to the server (Sec. 2.2,
// Reporting).
type ReportRequest struct {
	DeviceID string
	TaskID   string
	Round    int64
	// Update is the marshaled update checkpoint (weighted delta).
	Update []byte
	// Metrics are the device-computed metric values (loss etc.).
	Metrics map[string]float64
	// Aborted is set when the device gave up (eligibility change, error)
	// and reports only for accounting.
	Aborted bool
}

// ReportResponse acknowledges a report and tells the device when to
// reconnect next (pace steering also applies to completed devices).
type ReportResponse struct {
	Accepted   bool
	Reason     string
	RetryAfter time.Duration
}

// Abort is sent by the server when the round is over and the device's work
// is no longer needed (over-selected devices, Fig. 7 "aborted").
type Abort struct {
	TaskID string
	Round  int64
	Reason string
}
