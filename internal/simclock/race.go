//go:build race

package simclock

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Under the race detector every idle declaration is checked: a count gone
// negative, or a goroutine of the rig the runtime finds running or runnable,
// is a wake that skipped its hand-off. One that has just parked is a few
// instructions from blocking, so stragglers get a moment first. A rig knows
// its goroutines by the IDs Go recorded, so rigs run side by side.
func init() {
	var rigs sync.Map // goroutine ID → its rig
	track = func(v *Virtual) func() {
		buf := make([]byte, 64)
		id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf, false)]), "goroutine "), " ")
		rigs.Store(id, v)
		return func() { rigs.Delete(id) }
	}
	owns = func(v *Virtual, id string) bool { rig, _ := rigs.Load(id); return rig == v }
	busy := func(state string) bool { return state == "running" || state == "runnable" }
	verifyIdle = func(v *Virtual, running int) error {
		if running < 0 {
			return fmt.Errorf("simclock: %d goroutine(s) ran past a wake no one counted", -running)
		}
		for tries := 0; ; tries++ {
			sites := waitSites(v, busy)
			if len(sites) == 0 {
				return nil
			}
			if tries == 100 {
				return fmt.Errorf("simclock: idle declared while goroutines ran:\n%s", strings.Join(sites, ""))
			}
			runtime.Gosched()
		}
	}
}
