package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"digamma"
)

// The worker test re-execs this test binary into runWorker, the code
// behind `digammad -worker`: TestMain diverts to it when the env var is
// set, so the search talks to a separate OS process over real TCP.
const (
	envWorkerProc = "DIGAMMAD_TEST_WORKER_PROC"
	envAddrFile   = "DIGAMMAD_TEST_ADDR_FILE"
)

func TestMain(m *testing.M) {
	if os.Getenv(envWorkerProc) == "1" {
		logger, err := newLogger("info", "text")
		if err == nil {
			err = runWorker("127.0.0.1:0", os.Getenv(envAddrFile), 1, logger)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "digammad: worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestParseTenantWeights(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]int
		bad  bool
	}{
		{in: "", want: nil},
		{in: "gold=3,silver=1", want: map[string]int{"gold": 3, "silver": 1}},
		{in: "gold", bad: true},
		{in: "gold=3,silver", bad: true},
		{in: "=3", bad: true},
		{in: "gold=0", bad: true},
		{in: "gold=-2", bad: true},
		{in: "gold=x", bad: true},
	} {
		got, err := parseTenantWeights(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseTenantWeights(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseTenantWeights(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestParseTenantCaps(t *testing.T) {
	for _, tc := range []struct {
		in   string
		def  int
		per  map[string]int
		bad  bool
		desc string
	}{
		{in: "", desc: "unset"},
		{in: "8", def: 8, desc: "default only"},
		{in: "gold=32", per: map[string]int{"gold": 32}, desc: "override only"},
		{in: "8,gold=32,trial=2", def: 8, per: map[string]int{"gold": 32, "trial": 2}, desc: "default and overrides"},
		{in: "8,gold=0", def: 8, per: map[string]int{"gold": 0}, desc: "explicit tenant=0 lifts the cap for that tenant"},
		{in: "8,4", bad: true, desc: "two defaults"},
		{in: "gold=1,gold=2", bad: true, desc: "duplicate tenant"},
		{in: "-1", bad: true, desc: "negative default"},
		{in: "gold=-1", bad: true, desc: "negative override"},
		{in: "=4", bad: true, desc: "empty tenant"},
		{in: "gold=x", bad: true, desc: "non-numeric override"},
	} {
		def, per, err := parseTenantCaps("-tenant-cap", tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("%s: parseTenantCaps(%q) = %d, %v; want an error", tc.desc, tc.in, def, per)
			} else if !strings.Contains(err.Error(), "-tenant-cap") {
				t.Errorf("%s: error %q does not name the flag", tc.desc, err)
			}
			continue
		}
		if err != nil || def != tc.def || !reflect.DeepEqual(per, tc.per) {
			t.Errorf("%s: parseTenantCaps(%q) = %d, %v, %v; want %d, %v", tc.desc, tc.in, def, per, err, tc.def, tc.per)
		}
	}
}

func TestSplitList(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",", nil},
		{"a:1", []string{"a:1"}},
		{"a:1,b:2", []string{"a:1", "b:2"}},
		{" a:1 , ,b:2, ", []string{"a:1", "b:2"}},
	} {
		if got := splitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("splitList(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRunWorkerBitIdentical drives the shipped -worker code end to end: a
// 4-island search sharded onto a re-exec'd runWorker process must return
// exactly what the in-process search returns, the worker must have served
// the session (a failed handshake would fall back in-process and pass the
// comparison unseen), and SIGTERM must shut it down cleanly.
func TestRunWorkerBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker process")
	}
	af := filepath.Join(t.TempDir(), "addr")
	var stderr bytes.Buffer
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), envWorkerProc+"=1", envAddrFile+"="+af)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // a no-op once the SIGTERM below has reaped it
		cmd.Process.Kill()
		cmd.Wait()
	})
	var addr string
	for deadline := time.Now().Add(10 * time.Second); ; {
		b, err := os.ReadFile(af)
		if err == nil && len(b) > 0 {
			addr = strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker process never published its address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	model, err := digamma.LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	opts := digamma.Options{
		Budget:         480,
		Seed:           7,
		Workers:        1,
		Islands:        4,
		MigrateEvery:   2,
		IslandProfiles: []string{"default", "explorer", "exploiter", "scout"},
	}
	ref, err := digamma.Optimize(model, digamma.EdgePlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DistWorkers = []string{addr}
	got, err := digamma.Optimize(model, digamma.EdgePlatform(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness != ref.Fitness {
		t.Errorf("distributed best %x, in-process %x", got.Fitness, ref.Fitness)
	}
	if !reflect.DeepEqual(got.HW, ref.HW) {
		t.Errorf("distributed HW %+v, in-process %+v", got.HW, ref.HW)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("worker exit after SIGTERM: %v\n%s", err, stderr.String())
	}
	for _, line := range []string{"digammad worker listening", "session open", "worker shutting down"} {
		if !strings.Contains(stderr.String(), line) {
			t.Errorf("worker log lacks %q:\n%s", line, stderr.String())
		}
	}
}
