package device

import "testing"

func TestSessionShapes(t *testing.T) {
	// The two examples from Sec. 5.
	s1 := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateError} {
		s1.Log(st)
	}
	if s1.Shape() != "-v[]+*" {
		t.Fatalf("shape = %q, want -v[]+*", s1.Shape())
	}
	s2 := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateError} {
		s2.Log(st)
	}
	if s2.Shape() != "-v[*" {
		t.Fatalf("shape = %q, want -v[*", s2.Shape())
	}
}

func TestTable1Shapes(t *testing.T) {
	// The three session shapes of Table 1.
	success := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadDone} {
		success.Log(st)
	}
	if success.Shape() != "-v[]+^" {
		t.Fatalf("success shape = %q", success.Shape())
	}
	rejected := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateTrainCompleted, StateUploadStarted, StateUploadRejected} {
		rejected.Log(st)
	}
	if rejected.Shape() != "-v[]+#" {
		t.Fatalf("rejected shape = %q", rejected.Shape())
	}
	interrupted := &Session{}
	for _, st := range []SessionState{StateCheckin, StateDownloadedPlan, StateTrainStarted, StateInterrupted} {
		interrupted.Log(st)
	}
	if interrupted.Shape() != "-v[!" {
		t.Fatalf("interrupted shape = %q", interrupted.Shape())
	}
}

func TestUnknownStateRune(t *testing.T) {
	s := &Session{}
	s.Log(SessionState(99))
	s.Log(SessionState(0))
	if s.Shape() != "??" {
		t.Fatalf("unknown states render %q, want ??", s.Shape())
	}
}
