package chaos

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzChaosSpec (ROADMAP 2(c)): no input makes the spec grammar panic, and
// what Plan logs is a fixed point — parsing a spec, rendering it the way
// Plan does and parsing that again yields the same schedule and the same
// text, so a logged plan reproduces its run. Seeded with the specs of
// scripts/smoke_chaos.sh and DESIGN.md §2b.
func FuzzChaosSpec(f *testing.F) {
	for _, s := range []string{
		"shard:drop=0.05,jitter=200ms",
		"shard:drop=0.05,jitter=200ms;shard:1:partition@3s+2s",
		"shard:drop=0.05,jitter=200ms;shard:2:reset@2s",
		"shard:drop=0.05,jitter=200ms;shard:1:partition@3s+2s;shard:2:reset@r4",
		"rate=1024,queue=8;device:dup=0.1,corrupt=0.2,delay=5ms",
		"shard:partition@r3+1h;reset@-1s", " ; x :drop=0 ;; ", "drop=NaN", "a,b::partition@1s+-2s",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		plan := New(7, spec, nil).Plan()
		text := strings.TrimPrefix(strings.TrimPrefix(plan, "chaos: seed=7"), " ")
		if text != spec.render() {
			t.Fatalf("Plan() = %q does not carry the spec %q", plan, spec.render())
		}
		again, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%q parses, its plan %q does not: %v", s, text, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("%q: plan %q re-parses to a different schedule\n got %+v\nwant %+v", s, text, again, spec)
		}
		if again.render() != text {
			t.Fatalf("%q: plan %q is not a fixed point: renders %q", s, text, again.render())
		}
	})
}
