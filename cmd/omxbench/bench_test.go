package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, recs []benchRecord) string {
	t.Helper()
	raw, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckBaselineGatesBytesAndAllocs checks that B/op is gated next to
// allocs/op with the same limit, that each gate fires on its own, and that
// a baseline entry without bytes_per_op disables only the bytes gate.
func TestCheckBaselineGatesBytesAndAllocs(t *testing.T) {
	base := writeBaseline(t, []benchRecord{
		{ID: "a", NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 100},
		{ID: "old", NsPerOp: 100, AllocsPerOp: 100},
	})
	cases := []struct {
		name string
		rec  benchRecord
		fail string // substring of the error; "" = gate passes
	}{
		{"within limits", benchRecord{ID: "a", BytesPerOp: 1200, AllocsPerOp: 120}, ""},
		{"bytes regress", benchRecord{ID: "a", BytesPerOp: 1201, AllocsPerOp: 100}, "1 allocs/op or B/op"},
		{"allocs regress", benchRecord{ID: "a", BytesPerOp: 1000, AllocsPerOp: 121}, "1 allocs/op or B/op"},
		{"both regress", benchRecord{ID: "a", BytesPerOp: 5000, AllocsPerOp: 500}, "2 allocs/op or B/op"},
		{"no baseline bytes", benchRecord{ID: "old", BytesPerOp: 1 << 30, AllocsPerOp: 100}, ""},
		{"new experiment", benchRecord{ID: "new", BytesPerOp: 1 << 30, AllocsPerOp: 1 << 30}, ""},
	}
	for _, tc := range cases {
		summary := filepath.Join(t.TempDir(), "summary.md")
		err := checkBaseline([]benchRecord{tc.rec}, base, 0.20, 0.10, summary)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: unexpected gate failure: %v", tc.name, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.fail)
		}
		md, rerr := os.ReadFile(summary)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !strings.Contains(string(md), "| B/op | vs base |") {
			t.Errorf("%s: summary table has no B/op column:\n%s", tc.name, md)
		}
	}
}
