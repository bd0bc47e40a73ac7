// Secure Aggregation (Sec. 6): the four-round protocol of Bonawitz et al.
// 2017, with devices dropping out mid-protocol.
//
// Ten devices hold private update vectors. Two vanish after distributing
// their key shares (their pairwise masks must be reconstructed); one
// commits its masked input but never answers the finalization round. The
// server learns ONLY the sum over the devices that committed — no
// individual vector is ever visible to it.
//
//	go run ./examples/secureagg
package main

import (
	"fmt"
	"log"

	"repro/internal/secagg"
)

func main() {
	const (
		n      = 10
		thresh = 6 // protocol survives any 4 dropouts; <6 colluders learn nothing
		dim    = 8
	)

	inputs := make(map[int][]float64, n)
	for id := 1; id <= n; id++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = float64(id) * 0.5
		}
		inputs[id] = v
	}

	cfg := secagg.Config{N: n, T: thresh, VectorLen: dim}
	// Devices 3 and 7 drop after sharing keys; device 5 drops after
	// committing its masked input.
	res, err := secagg.RunSchedule(cfg, inputs, secagg.Schedule{DropAfterShare: []int{3, 7}, DropAfterMask: []int{5}})
	if err != nil {
		log.Fatal(err)
	}
	sum, survivors := res.Sum, res.Survivors

	fmt.Printf("participants: %d, threshold: %d\n", n, thresh)
	fmt.Printf("dropped after key sharing: devices 3, 7 (excluded from the sum)\n")
	fmt.Printf("dropped after commit:      device 5 (still included)\n")
	fmt.Printf("survivors in aggregate:    %v\n", survivors)

	want := make([]float64, dim)
	for _, id := range survivors {
		for j, v := range inputs[id] {
			want[j] += v
		}
	}
	fmt.Printf("securely aggregated sum:   %.2f\n", sum)
	fmt.Printf("plaintext verification:    %.2f\n", want)
	fmt.Println("the server never saw an individual update — only masked vectors and this sum")
}
