//go:build race

package simclock

import (
	"fmt"
	"runtime"
	"strings"
)

// Under the race detector every idle declaration is checked: a count gone
// negative, or a goroutine of the rig the runtime finds running or runnable,
// is a wake that skipped its hand-off. One that has just parked is a few
// instructions from blocking, so stragglers get a moment first.
func init() {
	verifyIdle = func(running int) error {
		if running < 0 {
			return fmt.Errorf("simclock: %d goroutine(s) ran past a wake no one counted", -running)
		}
		for tries := 0; ; tries++ {
			busy := ""
			for _, site := range waitSites() {
				if strings.HasPrefix(site, "  [running]") || strings.HasPrefix(site, "  [runnable]") {
					busy += site
				}
			}
			if busy == "" {
				return nil
			}
			if tries == 100 {
				return fmt.Errorf("simclock: idle declared while goroutines ran:\n%s", busy)
			}
			runtime.Gosched()
		}
	}
}
