package device

import "testing"

func TestSessionShapes(t *testing.T) {
	// The two examples from Sec. 5.
	s1 := &Log{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateError} {
		s1.Add(st)
	}
	if s1.Shape() != "-v[]+*" {
		t.Fatalf("shape = %q, want -v[]+*", s1.Shape())
	}
	s2 := &Log{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateError} {
		s2.Add(st)
	}
	if s2.Shape() != "-v[*" {
		t.Fatalf("shape = %q, want -v[*", s2.Shape())
	}
}

func TestTable1Shapes(t *testing.T) {
	// The three session shapes of Table 1.
	success := &Log{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadDone} {
		success.Add(st)
	}
	if success.Shape() != "-v[]+^" {
		t.Fatalf("success shape = %q", success.Shape())
	}
	rejected := &Log{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadRejected} {
		rejected.Add(st)
	}
	if rejected.Shape() != "-v[]+#" {
		t.Fatalf("rejected shape = %q", rejected.Shape())
	}
	interrupted := &Log{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateInterrupted} {
		interrupted.Add(st)
	}
	if interrupted.Shape() != "-v[!" {
		t.Fatalf("interrupted shape = %q", interrupted.Shape())
	}
}

func TestUnknownStateRune(t *testing.T) {
	s := &Log{}
	s.Add(SessionState(99))
	s.Add(SessionState(0))
	if s.Shape() != "??" {
		t.Fatalf("unknown states render %q, want ??", s.Shape())
	}
}
