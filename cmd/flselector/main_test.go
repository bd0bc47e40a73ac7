package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestChaosPlanRoundTrips: the -chaos flag takes what a run logged. Seeded
// with the schedules of scripts/smoke_chaos.sh.
func TestChaosPlanRoundTrips(t *testing.T) {
	for _, text := range []string{
		"shard:drop=0.05,jitter=200ms",
		"shard:drop=0.05,jitter=200ms;shard:1:partition@3s+2s",
		"shard:drop=0.05,jitter=200ms;shard:2:reset@2s",
	} {
		want, err := chaos.ParseSpec(text)
		if err != nil {
			t.Fatal(err)
		}
		logged := chaos.New(42, want, nil).Plan()
		seed, got, err := parseChaosPlan(strings.TrimPrefix(logged, "chaos: "))
		if err != nil || seed != 42 || !reflect.DeepEqual(got, want) {
			t.Fatalf("logged plan %q parsed to seed %d, %+v, %v; want seed 42, %+v", logged, seed, got, err, want)
		}
	}
	for _, bad := range []string{"shard:drop=0.05", "seed=x shard:drop=0.05", "seed=1 shard:drop=2"} {
		if _, _, err := parseChaosPlan(bad); err == nil {
			t.Fatalf("-chaos %q accepted", bad)
		}
	}
}
