package device

// SessionState is one state in a device's training round, logged as an
// event and rendered as a single character in the session shape string
// (Table 1 legend). The logs are free of PII (Sec. 5).
type SessionState uint8

// Session states; their visualization characters are stateRunes[state].
const (
	StateCheckin        SessionState = iota + 1 // '-' FL server checkin
	StateDownloadedPlan                         // 'v' downloaded plan
	StateTrainStarted                           // '[' training started
	StateTrainCompleted                         // ']' training completed
	StateUploadStarted                          // '+' upload started
	StateUploadDone                             // '^' upload completed
	StateUploadRejected                         // '#' upload rejected
	StateError                                  // '*' error
	StateInterrupted                            // '!' interrupted
)

// stateRunes is indexed by SessionState; '?' renders an unknown state.
const stateRunes = "?-v[]+^#*!"

// Session accumulates one device round's state transitions.
type Session struct {
	states []SessionState
}

// Log appends a state.
func (s *Session) Log(state SessionState) { s.states = append(s.states, state) }

// Shape renders the visualization string, e.g. "-v[]+^".
func (s *Session) Shape() string {
	out := make([]byte, len(s.states))
	for i, st := range s.states {
		if int(st) >= len(stateRunes) {
			st = 0
		}
		out[i] = stateRunes[st]
	}
	return string(out)
}
