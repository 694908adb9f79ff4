package bench

import (
	"bytes"
	"compress/gzip"
	"math"
	"os"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"minions/internal/sim.(*Engine).runTo":          "sim",
		"minions/internal/sim.(*timingWheel).place":     "sim",
		"minions/internal/link.(*Link).Handle":          "link",
		"minions/internal/device.(*Switch).Receive":     "device",
		"minions/internal/mem.Resolve":                  "device",
		"minions/internal/core.(*Executor).run":         "core",
		"minions/internal/host.(*Host).Receive":         "host",
		"minions/internal/transport.(*UDPFlow).Handle":  "transport",
		"minions/workload.(*msgSource).Handle":          "workload",
		"minions/telemetry.(*Pipeline).Publish":         "telemetry",
		"minions/telemetry/trace.(*Capture).tap":        "telemetry",
		"minions/internal/faults.(*linkFault).FilterTx": "faults",
		"minions/apps/rcp.(*Flow).Handle":               "apps",
		"minions/tppnet/app.(*Periodic).Handle":         "apps",
		"minions/internal/topo.FatTreeBuild":            "other",
		"minions/bench.(*scenario).measure.func1":       "other",
		"runtime.mallocgc":                              "",
		"main.main":                                     "",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// testdata/chaos.cpu.pb.gz is a runtime/pprof CPU profile of 24 apps-chaos
// seeds: 72 samples, 46 of them labelled phase=window. The expected shares
// were cross-checked against `go tool pprof -tagfocus=phase=window`.
func TestProfileSharesFixture(t *testing.T) {
	raw, err := os.ReadFile("testdata/chaos.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	all, err := ProfileShares(bytes.NewReader(raw), "")
	if err != nil {
		t.Fatal(err)
	}
	win, err := ProfileShares(bytes.NewReader(raw), "window")
	if err != nil {
		t.Fatal(err)
	}
	wantAll := map[string]float64{"sim": 24, "link": 8, "device": 4, "core": 1, "host": 3,
		"faults": 2, "apps": 3, "runtime": 26, "other": 1}
	wantWin := map[string]float64{"sim": 24, "link": 8, "device": 4, "core": 1, "host": 3,
		"faults": 2, "apps": 3, "other": 1}
	for _, b := range profileBuckets {
		if got, want := all[b], wantAll[b]/72; math.Abs(got-want) > 1e-12 {
			t.Errorf("whole profile: %s = %v, want %v/72", b, got, wantAll[b])
		}
		if got, want := win[b], wantWin[b]/46; math.Abs(got-want) > 1e-12 {
			t.Errorf("phase=window: %s = %v, want %v/46", b, got, wantWin[b])
		}
	}
	none, err := ProfileShares(bytes.NewReader(raw), "no-such-phase")
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range none {
		if v != 0 {
			t.Errorf("unmatched phase: %s = %v, want 0", b, v)
		}
	}
}

func TestProfileSharesRejectsDamage(t *testing.T) {
	if _, err := ProfileShares(bytes.NewReader([]byte("not gzip")), ""); err == nil {
		t.Error("plain bytes accepted as a profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	// Field 2 (sample), length-delimited, claiming 100 bytes with 1 present.
	if _, err := zw.Write([]byte{0x12, 100, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileShares(&buf, ""); err == nil {
		t.Error("truncated message accepted")
	}
}
