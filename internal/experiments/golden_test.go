package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build")

// TestFigureGoldens pins Table 1 and Fig. 9 for seed 1 on a small fleet, byte
// for byte: a refactor of what counts sessions or bytes must not move a
// figure, and a deliberate change to the model shows up as a golden diff
// (regenerate with `go test -run TestFigureGoldens ./internal/experiments/ -update`).
func TestFigureGoldens(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func() (any, error)
	}{
		{"table1", func() (any, error) { return Table1(1, 1, 2000, 50) }},
		{"fig9", func() (any, error) { return Fig9(1, 1, 2000, 50) }},
	} {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", c.name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s:\n got %s\nwant %s", c.name, path, got, want)
		}
	}
}
