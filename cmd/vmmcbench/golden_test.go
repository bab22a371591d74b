package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestResultsGolden pins RESULTS.txt: rendering the deterministic
// experiment set through the registry must reproduce the checked-in file
// byte for byte. Every quantity those experiments print is virtual-time
// derived, so any diff is a real behavior change in the modeled system —
// regenerate with `go run ./cmd/vmmcbench -deterministic > RESULTS.txt`
// and review the delta like code. The same run writes the sweeps'
// artifacts, which must match the checked-in BENCH_*.json files (each
// regenerates with its sweep's `-*-out` flag at default settings).
func TestResultsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full deterministic suite is seconds of simulation")
	}
	dir := t.TempDir()
	artifacts := map[string]*string{
		"BENCH_serve.json":   serveOut,
		"BENCH_replica.json": replicaOut,
		"BENCH_tenant.json":  tenantOut,
		"BENCH_coll.json":    collOut,
	}
	for name, flagVal := range artifacts {
		old := *flagVal
		*flagVal = filepath.Join(dir, name)
		t.Cleanup(func() { *flagVal = old })
	}
	var buf bytes.Buffer
	ran, err := runExperiments(&buf, "", true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("registry rendered no deterministic experiments")
	}
	for name, flagVal := range artifacts {
		got, err := os.ReadFile(*flagVal)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("../..", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the checked-in file; regenerate it with its sweep's -*-out flag and review the diff", name)
		}
	}
	want, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output drifted from RESULTS.txt at line %d:\n  got:  %q\n  want: %q\n"+
				"regenerate with `go run ./cmd/vmmcbench -deterministic > RESULTS.txt` and review the diff",
				i+1, g, w)
		}
	}
	t.Fatal("output drifted from RESULTS.txt (length mismatch)")
}
