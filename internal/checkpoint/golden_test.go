package checkpoint

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/checkpoint_v2.golden and DESIGN.md's checkpoint tables from the current code")

// TestWireGolden pins the layout to testdata/checkpoint_v2.golden, sample()
// as float64: a change to any field's width, order or encoding fails it.
// Such a change bumps formatVersion and regenerates the file with -update.
func TestWireGolden(t *testing.T) {
	got, err := sample().Marshal(EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "checkpoint_v2.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the checkpoint's bytes moved:\n got  %x\n want %x", got, want)
	}
}

// TestOldFormatsRefused: sample() in format 1, the fixed-width layout format
// 2 replaced, is refused by both decoders, not misread. (storage's
// TestFileStoreRefusesOldFormat refuses it from disk.)
func TestOldFormatsRefused(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Unmarshal(b); err == nil {
		t.Errorf("format 1 unmarshaled as %+v", c)
	}
	if m, err := ParseMeta(b); err == nil {
		t.Errorf("format 1 parsed as %+v", m)
	}
}

const (
	designPath  = "../../DESIGN.md"
	designBegin = "<!-- checkpoint layout: generated from internal/checkpoint's tables by TestDesignCheckpointTable (-update rewrites it) -->\n"
	designEnd   = "<!-- end of checkpoint layout -->\n"
)

// TestDesignCheckpointTable keeps DESIGN.md §2's checkpoint tables in step
// with the code: the header as v2Header lays it out, with the golden's bytes
// for each field as naiveHeader reads them, and one line per row of the
// encoding table.
func TestDesignCheckpointTable(t *testing.T) {
	c := sample()
	golden, err := c.Marshal(EncodingFloat64)
	if err != nil {
		t.Fatal(err)
	}
	vals, raw, section := naiveHeader(golden)
	want := [len(v2Header)]uint64{magic, formatVersion, uint64(EncodingFloat64), uint64(len(c.TaskName)),
		uint64(c.Round), math.Float64bits(c.Weight), uint64(len(c.Params))}
	if vals != want || !bytes.HasSuffix(raw[3], []byte(c.TaskName)) || len(section) != 8*len(c.Params) {
		t.Fatalf("Marshal does not follow v2Header: read %v, %q and %d section bytes", vals, raw[3], len(section))
	}
	var b strings.Builder
	b.WriteString("| checkpoint header, in walk order | kind | `checkpoint_v2.golden` |\n|---|---|---|\n")
	for i, f := range v2Header {
		fmt.Fprintf(&b, "| %s | %s | `%x` |\n", f.field, f.kind, raw[i])
	}
	b.WriteString("\n| encoding byte | row | bytes per element | before the elements | checkpoint of n params |\n|---|---|---|---|---|\n")
	for e, r := range rows {
		if !Encoding(e).Valid() {
			continue
		}
		prefix, size := "—", fmt.Sprintf("header + %d·n", r.width)
		if r.ranged {
			prefix, size = "`lo` f64 · `hi` f64", fmt.Sprintf("header + 16 + %d·n", r.width)
		}
		fmt.Fprintf(&b, "| %d | `%s` | %d | %s | %s |\n", e, r.name, r.width, prefix, size)
	}
	doc, err := os.ReadFile(designPath)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := bytes.Index(doc, []byte(designBegin)), bytes.Index(doc, []byte(designEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no generated checkpoint layout section", designPath)
	}
	begin += len(designBegin)
	if got := string(doc[begin:end]); got != b.String() {
		if !*update {
			t.Fatalf("DESIGN.md's checkpoint tables drifted from the code; rerun with -update:\n got\n%s\n want\n%s", got, b.String())
		}
		doc = slices.Concat(doc[:begin], []byte(b.String()), doc[end:])
		if err := os.WriteFile(designPath, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
