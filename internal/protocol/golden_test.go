package protocol

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden and DESIGN.md's wire table from the current codec")

// frameVersion is the TCP transport's wire version byte (transport.wireVersion):
// a golden frame is exactly what tcpConn.Send writes.
const frameVersion = 3

// goldenMessages holds one instance per type code with every field set and
// every map holding more than one entry.
func goldenMessages() map[byte]interface{} {
	return map[byte]interface{}{
		CodeCheckinRequest: CheckinRequest{DeviceID: "device-0042", Population: "gboard", RuntimeVersion: 3,
			AttestationToken: []byte("attest:0042")},
		CodeCheckinResponse: CheckinResponse{Accepted: true, RetryAfter: 30 * time.Second, Reason: "admitted",
			TaskID: "gboard/train", Round: 17, Plan: []byte{2, 0, 0, 0, 1, 'p'}, Checkpoint: []byte{1, 2, 3, 4, 5, 6, 7, 8},
			ReportDeadline: 3 * time.Minute},
		CodeReportRequest: ReportRequest{DeviceID: "device-0042", TaskID: "gboard/train", Round: 17,
			Update:  []byte{9, 8, 7, 6, 5, 4, 3, 2},
			Metrics: map[string]float64{"train_loss": 0.5, "train_acc": 0.75, "examples": 120}, Aborted: true},
		CodeReportResponse: ReportResponse{Accepted: true, Reason: "accepted", RetryAfter: 10 * time.Minute},
		CodeAbort:          Abort{TaskID: "gboard/train", Round: 17, Reason: "enough devices"},
		CodeStripeSeal: StripeSeal{Population: "gboard", TaskID: "gboard/train", Round: 17, Shard: 2,
			Reports: 100, EvalReports: 3, Lost: 4, Aborted: 5, Clipped: 9, Weight: 41.5,
			Sum:            []byte{1, 2, 3, 4, 5, 6, 7, 8},
			Metrics:        map[string][]float64{"train_loss": {0.5, 0.25}, "train_acc": {1}},
			Phases:         map[string]int64{"configure": 12_000_000, "edge_accumulate": 34_000_000},
			Blamed:         []string{"dev-7: forged share", "dev-9: complaint from holder"},
			GroupErrors:    []string{"secagg: only 1 of 4 group devices delivered"},
			RobustRejected: []string{"dev-1: cosine distance 1.9"}},
		CodeRoundConfig: RoundConfig{Population: "gboard", TaskID: "gboard/train", Round: 17, Target: 100,
			Admit: 130, MinReports: 80, MinRuntime: 3, Estimate: 5000,
			Plan: []byte{1, 0, 0, 0, 1, 'p'}, Checkpoint: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		CodeRoundFinalize: RoundFinalize{Population: "gboard", TaskID: "gboard/train", Round: 17},
		CodeRoundAbort:    RoundAbort{Population: "gboard", TaskID: "gboard/train", Round: 17, Reason: "drained"},
		CodeShardHello:    ShardHello{Shard: 4, Name: "shard-4"},
		CodeCheckinRate: CheckinRate{Population: "gboard", Shard: 1, Source: "shard-1/selector-0",
			Count: 42, Elapsed: time.Second, Demand: 7},
		CodeActorEnvelope: ActorEnvelope{Target: "coordinator/gboard",
			Payload: []byte{CodeHeartbeat, 0, 0, 0, 0, 0, 0, 0, 99, 1}},
		CodeHeartbeat: Heartbeat{Seq: 99, Ack: true},
		CodeTelemetrySnapshot: TelemetrySnapshot{Shard: 3, Name: "shard-3",
			Counters:  map[string]int64{"fl_checkins_total": 512, "fl_reports_total": 40},
			Gauges:    map[string]float64{"fl_checkin_rate": 12.5, "fl_selector_pooled": 3},
			Summaries: map[string][]float64{"fl_seal_seconds": {4, 0.5, 0.1, 0.2, 0.9, 0.5, 0.8, 0.9}, "fl_round_seconds": {1, 2}}},
		CodeSecAggAdvertise: SecAggAdvertise{ID: 3, CPub: []byte("c-public-key"), SPub: []byte("s-public-key")},
		CodeSecAggRoster: SecAggRoster{Adverts: []SecAggAdvertise{{ID: 1, CPub: []byte{1, 2}, SPub: []byte{3, 4}},
			{ID: 3, CPub: []byte{5}, SPub: []byte{6}}}},
		CodeSecAggShares: SecAggShares{Shares: []RoutedShare{{Owner: 3, Holder: 1, CT: []byte{7, 8, 9}}, {Owner: 3, Holder: 5, CT: []byte{10}}},
			Commitments: ShareCommitments{Owner: 3, B: [][32]byte{{1}, {2}}, SK: [][32]byte{{3}, {4}}}},
		CodeSecAggRouted: SecAggRouted{Shares: []RoutedShare{{Owner: 3, Holder: 1, CT: []byte{7, 8, 9}}, {Owner: 5, Holder: 1, CT: []byte{11}}},
			Commitments: []ShareCommitments{{Owner: 3, B: [][32]byte{{1}}, SK: [][32]byte{{2}}}, {Owner: 5, B: [][32]byte{{3}}, SK: [][32]byte{{4}}}}},
		CodeSecAggComplaint: SecAggComplaint{By: 1, Against: 3, Reason: "share does not open broadcast commitment"},
		CodeSecAggMaskSet:   SecAggMaskSet{IDs: []int{1, 2, 5}},
		CodeSecAggMasked:    SecAggMasked{ID: 2, Y: []uint64{1, 1 << 60, 42}},
		CodeSecAggSurvivors: SecAggSurvivors{IDs: []int{1, 5}},
		CodeSecAggUnmask: SecAggUnmask{From: 1,
			BShares:  []OwnerShare{{Owner: 5, Share: SecretShare{X: 1, Ys: [6]uint64{1, 2, 3, 4, 5, 6}}, Blinder: [16]byte{9}}},
			SKShares: []OwnerShare{{Owner: 2, Share: SecretShare{X: 1, Ys: [6]uint64{6, 5, 4, 3, 2, 1}}, Blinder: [16]byte{8}}}},
	}
}

// goldenFrame is msg as one whole TCP frame: u32 length, version, code,
// payload.
func goldenFrame(t testing.TB, msg interface{}) []byte {
	code, payload, ok := MarshalBinary(msg)
	if !ok {
		t.Fatalf("%T has no codec", msg)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(2+len(payload)))
	return append(append(frame, frameVersion, code), payload...)
}

func goldenPath(code byte) string {
	row, _ := Lookup(code)
	return filepath.Join("testdata", row.Name+".golden")
}

// TestWireGolden pins every type code's frame to the bytes in testdata: a
// change to any field's width, order or encoding fails it. Such a change
// bumps the transport's wire version and regenerates the files with -update.
func TestWireGolden(t *testing.T) {
	golden := goldenMessages()
	for _, code := range codes() {
		msg := golden[code]
		got := goldenFrame(t, msg)
		if got[5] != code {
			t.Fatalf("%T framed under code %d, want %d", msg, got[5], code)
		}
		if *update {
			if err := os.WriteFile(goldenPath(code), got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath(code))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%T: the codec's bytes moved:\n got  %x\n want %x", msg, got, want)
		}
		back, err := UnmarshalBinary(want[5], want[6:])
		if err != nil || !reflect.DeepEqual(back, msg) {
			t.Errorf("%T: the golden frame decodes to %+v, %v", msg, back, err)
		}
	}
}

// TestEncodingIsCanonical: one message always encodes to one byte string,
// whatever order its maps iterate in.
func TestEncodingIsCanonical(t *testing.T) {
	golden := goldenMessages()
	for _, code := range []byte{CodeReportRequest, CodeStripeSeal, CodeTelemetrySnapshot} {
		seen := map[string]bool{}
		for i := 0; i < 100; i++ {
			_, payload, _ := MarshalBinary(golden[code])
			seen[string(payload)] = true
		}
		if len(seen) != 1 {
			t.Errorf("%T: 100 marshals gave %d distinct byte strings", golden[code], len(seen))
		}
	}
}

const designPath = "../../DESIGN.md"

// The generated section of DESIGN.md lies between these two lines.
const (
	designBegin = "<!-- wire table: generated from internal/protocol's table by TestDesignWireTable (-update rewrites it) -->\n"
	designEnd   = "<!-- end of wire table -->\n"
)

// TestDesignWireTable keeps DESIGN.md's wire table equal to the one
// rendered from the protocol's table and walks, and proves the rendered
// layouts: each message's walk visits its fields in declaration order with
// the widths the layout column names, so its encoding equals byLayout's.
func TestDesignWireTable(t *testing.T) {
	var b strings.Builder
	b.WriteString("| code | message | sender | legal in session phase | frame ceiling | receive buffer | layout, in walk order |\n|---|---|---|---|---|---|---|\n")
	golden := goldenMessages()
	for _, code := range codes() {
		row, _ := Lookup(code)
		filled := reflect.ValueOf(filledOf(golden[code]))
		if _, payload, _ := MarshalBinary(filled.Interface()); !bytes.Equal(payload, byLayout(nil, filled)) {
			t.Errorf("%s's walk does not follow its fields' declared order and widths", row.Name)
		}
		var fields []string
		for _, f := range wireFields(filled.Type()) {
			fields = append(fields, fmt.Sprintf("`%s` %s", f.Name, layoutKind(f.Type)))
		}
		buffer := "owned"
		if row.Leased {
			buffer = "leased"
		}
		fmt.Fprintf(&b, "| %d | `%s` | %s | %s | %s | %s | %s |\n", code, row.Name, row.Sender, row.Phases,
			ceiling(row.Ceiling), buffer, strings.Join(fields, " · "))
	}
	doc, err := os.ReadFile(designPath)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := bytes.Index(doc, []byte(designBegin)), bytes.Index(doc, []byte(designEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no generated wire table section", designPath)
	}
	begin += len(designBegin)
	if got := string(doc[begin:end]); got != b.String() {
		if !*update {
			t.Fatalf("DESIGN.md's wire table drifted from the code; rerun with -update:\n got\n%s\n want\n%s", got, b.String())
		}
		doc = slices.Concat(doc[:begin], []byte(b.String()), doc[end:])
		if err := os.WriteFile(designPath, doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func ceiling(n int) string {
	if n >= 1<<30 {
		return fmt.Sprintf("%d GiB", n>>30)
	}
	return fmt.Sprintf("%d KiB", n>>10)
}

// wireFields are the fields of struct type t a walk visits: all but those
// tagged `wire:"-"`.
func wireFields(t reflect.Type) []reflect.StructField {
	var out []reflect.StructField
	for i := range t.NumField() {
		if f := t.Field(i); f.Tag.Get("wire") != "-" {
			out = append(out, f)
		}
	}
	return out
}

// layoutKind names the wire kind a field of type t is walked as.
func layoutKind(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Struct:
		var kinds []string
		for _, f := range wireFields(t) {
			kinds = append(kinds, layoutKind(f.Type))
		}
		return "{" + strings.Join(kinds, " ") + "}"
	case reflect.Array:
		return fmt.Sprintf("%d×%s", t.Len(), layoutKind(t.Elem()))
	case reflect.Uint8:
		return "u8"
	case reflect.Bool:
		return "bool"
	case reflect.Uint32:
		return "u32"
	case reflect.Uint64:
		return "u64"
	case reflect.Int, reflect.Int64:
		return "varint"
	case reflect.Float64:
		return "f64"
	case reflect.String:
		return "str"
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return "bytes"
		}
		return "[" + layoutKind(t.Elem()) + "]"
	case reflect.Map:
		return "map[str]" + layoutKind(t.Elem())
	}
	panic(fmt.Sprintf("no wire kind for %s", t))
}

// byLayout appends v encoded as layoutKind predicts, field by field in
// declaration order; maps in key order.
func byLayout(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for _, f := range wireFields(v.Type()) {
			b = byLayout(b, v.FieldByIndex(f.Index))
		}
		return b
	case reflect.Array:
		for i := range v.Len() {
			b = byLayout(b, v.Index(i))
		}
		return b
	case reflect.Uint8:
		return append(b, byte(v.Uint()))
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Uint32:
		return hU32(b, uint32(v.Uint()))
	case reflect.Uint64:
		return hU64(b, v.Uint())
	case reflect.Int, reflect.Int64:
		return hInt(b, v.Int())
	case reflect.Float64:
		return hU64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return hStr(b, v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(hUv(b, uint64(v.Len())), v.Bytes()...)
		}
		b = hUv(b, uint64(v.Len()))
		for i := range v.Len() {
			b = byLayout(b, v.Index(i))
		}
		return b
	case reflect.Map:
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int { return strings.Compare(x.String(), y.String()) })
		b = hUv(b, uint64(len(keys)))
		for _, k := range keys {
			b = byLayout(hStr(b, k.String()), v.MapIndex(k))
		}
		return b
	}
	panic(fmt.Sprintf("no wire kind for %s", v.Type()))
}
