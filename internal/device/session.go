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

// Log accumulates one device session's state transitions.
type Log struct {
	states []SessionState
}

// Add appends a state.
func (l *Log) Add(state SessionState) { l.states = append(l.states, state) }

// Shape renders the visualization string, e.g. "-v[]+^".
func (l *Log) Shape() string {
	out := make([]byte, len(l.states))
	for i, st := range l.states {
		if int(st) >= len(stateRunes) {
			st = 0
		}
		out[i] = stateRunes[st]
	}
	return string(out)
}
