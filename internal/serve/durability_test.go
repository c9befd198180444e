package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"digamma/internal/core"
	"digamma/internal/faults"
)

// durableServer is testServer for tests that manage crash/restart cycles
// by hand: the returned closer simulates the crash (Close == crash from
// the store's point of view) and is also registered as cleanup, which is
// safe because both closes are idempotent.
func durableServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	closer := func() { ts.Close(); s.Close() }
	t.Cleanup(closer)
	return s, ts.URL, closer
}

// walRecords writes n accepted jobs through a DiskStore and returns the
// raw WAL bytes plus each frame's end offset (frame k spans
// ends[k-1]..ends[k]).
func walRecords(t *testing.T, n int) (data []byte, ends []int, recs []JobRecord) {
	t.Helper()
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		rec := JobRecord{
			ID:        fmt.Sprintf("j%06d", i),
			Hash:      fmt.Sprintf("hash-%d", i),
			CreatedAt: time.Unix(int64(1700000000+i), 0).UTC(),
			Req:       OptimizeRequest{Model: "ncf", Budget: 100, Seed: int64(i)},
		}
		recs = append(recs, rec)
		if err := ds.LogAccepted(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	ends = []int{0}
	for i, b := range data {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	if len(ends) != n+1 {
		t.Fatalf("WAL has %d frames, want %d", len(ends)-1, n)
	}
	return data, ends, recs
}

// TestWALReplayEveryPrefix is the crash-at-any-byte property: truncating
// the WAL at every possible offset never yields anything but an exact
// prefix of the accepted records, and the reported valid offset is always
// the last complete frame boundary. A crash mid-append therefore loses at
// most the record being written — never an earlier acknowledged one, and
// never a corrupted half-record.
func TestWALReplayEveryPrefix(t *testing.T) {
	data, ends, recs := walRecords(t, 4)
	for cut := 0; cut <= len(data); cut++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		got, valid := replayWAL(data[:cut])
		if valid != ends[whole] {
			t.Fatalf("cut %d: valid offset %d, want %d", cut, valid, ends[whole])
		}
		if len(got) != whole {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(got), whole)
		}
		for i := range got {
			if got[i].ID != recs[i].ID || got[i].Hash != recs[i].Hash {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
			}
		}
	}
}

// TestDiskStoreTornTail: opening a store over a torn WAL truncates the
// tail on disk, recovers the valid prefix, and appends cleanly afterwards
// — the full crash-mid-append then keep-running lifecycle.
func TestDiskStoreTornTail(t *testing.T) {
	data, ends, recs := walRecords(t, 3)
	for _, cut := range []int{ends[2] + 1, len(data) - 1, ends[1] + 9} {
		dir := t.TempDir()
		walPath := filepath.Join(dir, "wal.log")
		if err := os.WriteFile(walPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		if fi, err := os.Stat(walPath); err != nil || fi.Size() != int64(ends[whole]) {
			t.Fatalf("cut %d: WAL size %d after open, want %d", cut, fi.Size(), ends[whole])
		}
		extra := JobRecord{ID: "j000099", Hash: "hash-99", Req: OptimizeRequest{Model: "ncf", Budget: 100}}
		if err := ds.LogAccepted(extra); err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		ds2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		rjs, err := ds2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rjs) != whole+1 {
			t.Fatalf("cut %d: recovered %d jobs, want %d", cut, len(rjs), whole+1)
		}
		for i := 0; i < whole; i++ {
			if rjs[i].Record.ID != recs[i].ID {
				t.Fatalf("cut %d: job %d = %s, want %s", cut, i, rjs[i].Record.ID, recs[i].ID)
			}
		}
		if rjs[whole].Record.ID != extra.ID {
			t.Fatalf("cut %d: appended record %s, want %s", cut, rjs[whole].Record.ID, extra.ID)
		}
		_ = ds2.Close()
	}
}

// TestWALCorruptMiddle: a bit-rotted byte inside a frame stops replay at
// that frame (prefix semantics — later frames are not trusted past a
// corrupt one).
func TestWALCorruptMiddle(t *testing.T) {
	data, ends, recs := walRecords(t, 3)
	corrupt := append([]byte(nil), data...)
	corrupt[ends[1]+12] ^= 0xFF // inside frame 2's payload
	got, valid := replayWAL(corrupt)
	if len(got) != 1 || got[0].ID != recs[0].ID {
		t.Fatalf("replayed %d records past corruption, want 1", len(got))
	}
	if valid != ends[1] {
		t.Fatalf("valid offset %d, want %d", valid, ends[1])
	}
}

// TestWALInjectedWriteFaults: a LogAccepted that fails by injection leaves
// the WAL fully valid — recovery sees exactly the acknowledged records.
func TestWALInjectedWriteFaults(t *testing.T) {
	dir := t.TempDir()
	ds, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.Faults = faults.New(7)
	ds.Faults.Set(PointWAL, faults.Knob{Every: 3})
	var acked []string
	for i := 1; i <= 10; i++ {
		rec := JobRecord{ID: fmt.Sprintf("j%06d", i), Hash: fmt.Sprintf("h%d", i),
			Req: OptimizeRequest{Model: "ncf", Budget: 100, Seed: int64(i)}}
		if err := ds.LogAccepted(rec); err == nil {
			acked = append(acked, rec.ID)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	ds2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	rjs, err := ds2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rjs) != len(acked) {
		t.Fatalf("recovered %d jobs, want the %d acknowledged", len(rjs), len(acked))
	}
	for i, rj := range rjs {
		if rj.Record.ID != acked[i] {
			t.Fatalf("job %d = %s, want %s", i, rj.Record.ID, acked[i])
		}
	}
}

// diskStore opens a DiskStore over a fresh temporary directory and
// returns it with reopen, which opens a new store over the same directory
// — the restart half of the crash/restart cycles the recovery tests run
// (Close == crash as far as the store can tell).
func diskStore(t *testing.T) (store *DiskStore, reopen func() Store) {
	t.Helper()
	dir := t.TempDir()
	open := func() *DiskStore {
		ds, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	return open(), func() Store { return open() }
}

// TestCrashRecoveryResumeDeterminism is the crash-recovery acceptance
// test: a server is killed mid-search (Close == crash for the store), a
// second server over the same store re-enqueues the job from its latest
// checkpoint, and the recovered result is byte-identical to an
// uninterrupted run of the same request — the engine's bit-identical
// resume guarantee, observed end-to-end through the HTTP API.
func TestCrashRecoveryResumeDeterminism(t *testing.T) {
	req := OptimizeRequest{Model: "ncf", Budget: 6000, Seed: 11}

	// Uninterrupted baseline, no store.
	_, baseURL, _ := durableServer(t, Config{Workers: 1})
	st, _ := submit(t, baseURL, req)
	want := waitState(t, baseURL, st.ID, StateDone, time.Minute)
	wantJSON, err := json.Marshal(want.Result)
	if err != nil || want.Result == nil {
		t.Fatalf("baseline result: %v (nil=%v)", err, want.Result == nil)
	}

	t.Run("disk", func(t *testing.T) {
		store, reopen := diskStore(t)
		s1, url1, crash := durableServer(t, Config{Workers: 1, Store: store, CheckpointEvery: 1})
		st1, code := submit(t, url1, req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", code)
		}
		deadline := time.Now().Add(30 * time.Second)
		for s1.checkpointsWritten.Load() < 2 {
			if time.Now().After(deadline) {
				t.Fatal("no checkpoints written before deadline")
			}
			time.Sleep(time.Millisecond)
		}
		crash()
		if s1.get(st1.ID).State().Terminal() {
			t.Skip("search outran the crash; nothing to recover")
		}

		s2, url2, _ := durableServer(t, Config{Workers: 1, Store: reopen(), CheckpointEvery: 1})
		if got := s2.jobsRecovered.Load(); got != 1 {
			t.Fatalf("jobs recovered = %d, want 1", got)
		}
		got := waitState(t, url2, st1.ID, StateDone, time.Minute)
		gotJSON, err := json.Marshal(got.Result)
		if err != nil || got.Result == nil {
			t.Fatalf("recovered result: %v (nil=%v)", err, got.Result == nil)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("recovered result differs from uninterrupted run:\n%s\nvs\n%s", gotJSON, wantJSON)
		}
	})
}

// TestRecoverStaleCheckpointRecomputes is the upgrade path across a
// checkpoint format change: a job checkpoints, the server crashes, and
// its checkpoint file is rewritten in an older form — version 1 (the
// population as JSON states, not state-encoded bytes) or version 2 (each
// island with its prune-stall counter). The reopened store refuses the
// stale checkpoint, and the job re-runs from its WAL record to a result
// byte-identical to an uninterrupted run.
func TestRecoverStaleCheckpointRecomputes(t *testing.T) {
	req := OptimizeRequest{Model: "ncf", Budget: 6000, Seed: 12}
	_, baseURL, _ := durableServer(t, Config{Workers: 1})
	st, _ := submit(t, baseURL, req)
	want := waitState(t, baseURL, st.ID, StateDone, time.Minute)
	wantJSON, err := json.Marshal(want.Result)
	if err != nil || want.Result == nil {
		t.Fatalf("baseline result: %v (nil=%v)", err, want.Result == nil)
	}

	for _, form := range []struct {
		name  string
		stale func(t *testing.T, data []byte) []byte
	}{{"v1", v1Checkpoint}, {"v2", v2Checkpoint}} {
		t.Run(form.name, func(t *testing.T) {
			dir := t.TempDir()
			open := func() *DiskStore {
				ds, err := OpenDiskStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}
			s1, url1, crash := durableServer(t, Config{Workers: 1, Store: open(), CheckpointEvery: 1})
			st1, code := submit(t, url1, req)
			if code != http.StatusAccepted {
				t.Fatalf("submit: HTTP %d", code)
			}
			deadline := time.Now().Add(30 * time.Second)
			for s1.checkpointsWritten.Load() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("no checkpoints written before deadline")
				}
				time.Sleep(time.Millisecond)
			}
			crash()
			if s1.get(st1.ID).State().Terminal() {
				t.Skip("search outran the crash; nothing to recover")
			}

			path := filepath.Join(dir, "ckpt", st1.ID+".json")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, form.stale(t, data), 0o644); err != nil {
				t.Fatal(err)
			}
			probe := open()
			recs, err := probe.Recover()
			if err != nil || len(recs) != 1 {
				t.Fatalf("recover: %d jobs, err %v", len(recs), err)
			}
			if recs[0].Terminal != nil || recs[0].Resume != nil {
				t.Fatalf("stale checkpoint recovered as terminal=%v resume=%v, want a fresh run", recs[0].Terminal != nil, recs[0].Resume != nil)
			}
			if err := probe.Close(); err != nil {
				t.Fatal(err)
			}

			s2, url2, _ := durableServer(t, Config{Workers: 1, Store: open(), CheckpointEvery: 1})
			if got := s2.jobsRecovered.Load(); got != 1 {
				t.Fatalf("jobs recovered = %d, want 1", got)
			}
			got := waitState(t, url2, st1.ID, StateDone, time.Minute)
			gotJSON, err := json.Marshal(got.Result)
			if err != nil || got.Result == nil {
				t.Fatalf("recomputed result: %v (nil=%v)", err, got.Result == nil)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Fatalf("recomputed result differs from uninterrupted run:\n%s\nvs\n%s", gotJSON, wantJSON)
			}
		})
	}
}

// decodeCheckpointJSON decodes a checkpoint file as generic JSON, keeping
// numbers exact, for rewriting into an older form.
func decodeCheckpointJSON(t *testing.T, data []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var ck map[string]any
	if err := dec.Decode(&ck); err != nil {
		t.Fatal(err)
	}
	return ck
}

// v2Checkpoint rewrites a checkpoint in the version-2 form: the same
// envelope with each island carrying its prune-stall counter.
func v2Checkpoint(t *testing.T, data []byte) []byte {
	t.Helper()
	ck := decodeCheckpointJSON(t, data)
	ck["version"] = 2
	for _, island := range ck["islands"].([]any) {
		island.(map[string]any)["stall"] = 1
	}
	out, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// v1Checkpoint rewrites a checkpoint in the version-1 form: the same
// envelope with each island's population as a JSON list of states.
func v1Checkpoint(t *testing.T, data []byte) []byte {
	t.Helper()
	ck := decodeCheckpointJSON(t, data)
	ck["version"] = 1
	for _, island := range ck["islands"].([]any) {
		is := island.(map[string]any)
		raw, err := base64.StdEncoding.DecodeString(is["pop"].(string))
		if err != nil {
			t.Fatal(err)
		}
		states, err := core.DecodeStates(raw)
		if err != nil {
			t.Fatal(err)
		}
		pop := make([]map[string]any, len(states))
		for i, st := range states {
			pop[i] = map[string]any{"fanouts": st.Fanouts, "maps": st.Maps, "fitness": st.Fitness}
			if st.Pruned {
				pop[i]["pruned"] = true
			}
		}
		is["pop"] = pop
	}
	out, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoveredTerminalServesDedup: a completed job survives the crash as
// its persisted report — the restarted server serves its status, result
// and dedup hits without re-running the search.
func TestRecoveredTerminalServesDedup(t *testing.T) {
	store, reopen := diskStore(t)
	req := OptimizeRequest{Model: "ncf", Budget: 300, Seed: 21}

	_, url1, crash := durableServer(t, Config{Workers: 1, Store: store})
	st, _ := submit(t, url1, req)
	done := waitState(t, url1, st.ID, StateDone, time.Minute)
	crash()

	s2, url2, _ := durableServer(t, Config{Workers: 1, Store: reopen()})
	if got := s2.jobsRecovered.Load(); got != 0 {
		t.Fatalf("jobs recovered = %d, want 0 (job was terminal)", got)
	}
	rec := getStatus(t, url2, st.ID)
	if rec.State != StateDone || rec.Result == nil {
		t.Fatalf("recovered job state %s (result nil=%v), want done with result", rec.State, rec.Result == nil)
	}
	a, _ := json.Marshal(done.Result)
	b, _ := json.Marshal(rec.Result)
	if !bytes.Equal(a, b) {
		t.Fatalf("recovered report differs:\n%s\nvs\n%s", b, a)
	}
	dup, code := submit(t, url2, req)
	if code != http.StatusOK || !dup.Deduplicated || dup.ID != st.ID {
		t.Fatalf("resubmit: HTTP %d dedup=%v id=%s, want 200 dedup onto %s", code, dup.Deduplicated, dup.ID, st.ID)
	}
}

// TestDrainRecoversQueuedAndRunning: a graceful drain leaves the running
// job checkpointed and the queued ones untouched in the WAL; rejects new
// submissions; and the next server finishes all of them.
func TestDrainRecoversQueuedAndRunning(t *testing.T) {
	store, reopen := diskStore(t)
	reqs := []OptimizeRequest{
		// The first job is large enough that the drain reliably interrupts
		// it mid-search; the recovered server finishes it from the
		// checkpoint rather than re-running the whole budget.
		{Model: "ncf", Budget: 60000, Seed: 31},
		{Model: "ncf", Budget: 300, Seed: 32},
		{Model: "ncf", Budget: 300, Seed: 33},
	}
	s1, url1, _ := durableServer(t, Config{Workers: 1, Store: store, CheckpointEvery: 1})
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		st, code := submit(t, url1, r)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		ids[i] = st.ID
	}
	deadline := time.Now().Add(30 * time.Second)
	for s1.checkpointsWritten.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint before drain")
		}
		time.Sleep(time.Millisecond)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, code := submit(t, url1, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 99}); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", code)
	}
	for _, id := range ids {
		if s1.get(id).State().Terminal() {
			t.Fatalf("job %s turned terminal across drain", id)
		}
	}

	s2, url2, _ := durableServer(t, Config{Workers: 2, Store: reopen(), CheckpointEvery: 1})
	if got := s2.jobsRecovered.Load(); got != uint64(len(reqs)) {
		t.Fatalf("jobs recovered = %d, want %d", got, len(reqs))
	}
	for _, id := range ids {
		waitState(t, url2, id, StateDone, time.Minute)
	}
}

// TestJobDeadlineDegraded: a job that exceeds its wall-clock deadline
// finishes as degraded with its best-so-far result attached, counts in
// the degraded metric, and does not block a full-budget retry via dedup.
func TestJobDeadlineDegraded(t *testing.T) {
	s, url, _ := durableServer(t, Config{Workers: 1, JobDeadline: 40 * time.Millisecond})
	req := OptimizeRequest{Model: "mnasnet", Budget: 900000, Seed: 41}
	st, _ := submit(t, url, req)
	got := waitState(t, url, st.ID, StateDegraded, time.Minute)
	if got.Result == nil {
		t.Fatal("degraded job has no best-so-far result")
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("degraded error %q does not mention the deadline", got.Error)
	}
	if n := s.jobsDegraded.Load(); n != 1 {
		t.Fatalf("jobsDegraded = %d, want 1", n)
	}
	retry, code := submit(t, url, req)
	if code != http.StatusAccepted || retry.Deduplicated || retry.ID == st.ID {
		t.Fatalf("retry after degraded: HTTP %d dedup=%v id=%s, want fresh 202", code, retry.Deduplicated, retry.ID)
	}
}

// TestWorkerPanicIsolated: an injected worker panic fails only its own
// job; the worker survives to run the next one, and the recovery counter
// ticks.
func TestWorkerPanicIsolated(t *testing.T) {
	inj := faults.New(1)
	inj.Set("worker.run", faults.Knob{Every: 2, Panic: true})
	s, url, _ := durableServer(t, Config{Workers: 1, Faults: inj})

	a, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 51})
	waitState(t, url, a.ID, StateDone, time.Minute)

	b, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 52})
	got := waitState(t, url, b.ID, StateFailed, time.Minute)
	if !strings.Contains(got.Error, "panic") {
		t.Fatalf("failed job error %q does not carry the panic", got.Error)
	}

	c, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 300, Seed: 53})
	waitState(t, url, c.ID, StateDone, time.Minute)
	if n := s.panicsRecovered.Load(); n != 1 {
		t.Fatalf("panicsRecovered = %d, want 1", n)
	}
}

// TestSubmitWALFaultRejected: when the WAL append fails, the submit is
// rejected (the job must never exist unrecoverably), the rollback frees
// the job ID for the next submission, and the store-error counter ticks.
func TestSubmitWALFaultRejected(t *testing.T) {
	store, _ := diskStore(t)
	store.Faults = faults.New(1)
	store.Faults.Set(PointWAL, faults.Knob{Every: 2})
	s, url, _ := durableServer(t, Config{Workers: 1, Store: store})

	a, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Seed: 61})
	if code != http.StatusAccepted || a.ID != "j000001" {
		t.Fatalf("first submit: HTTP %d id %s", code, a.ID)
	}
	if _, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Seed: 62}); code != http.StatusServiceUnavailable {
		t.Fatalf("faulted submit: HTTP %d, want 503", code)
	}
	if n := s.storeErrors.Load(); n != 1 {
		t.Fatalf("storeErrors = %d, want 1", n)
	}
	c, code := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 200, Seed: 63})
	if code != http.StatusAccepted || c.ID != "j000002" {
		t.Fatalf("post-rollback submit: HTTP %d id %s, want 202 j000002", code, c.ID)
	}
	waitState(t, url, a.ID, StateDone, time.Minute)
	waitState(t, url, c.ID, StateDone, time.Minute)
}

// TestSSEShutdownError: an open event stream is told the server is going
// away — a terminal-looking "error" event, not silence — when a drain
// interrupts the job it is watching.
func TestSSEShutdownError(t *testing.T) {
	store, _ := diskStore(t)
	s, url, _ := durableServer(t, Config{Workers: 1, Store: store, CheckpointEvery: 1})
	st, _ := submit(t, url, OptimizeRequest{Model: "ncf", Budget: 900000, Seed: 71})

	resp, err := http.Get(url + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	go func() {
		// Give the stream a moment to attach, then drain.
		time.Sleep(50 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	}()

	sc := bufio.NewScanner(resp.Body)
	var sawError bool
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if line == "event: error" {
			sawError = true
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if !sawError {
		t.Fatal("stream ended without an error event on shutdown")
	}
	var ev Event
	if err := json.Unmarshal([]byte(lastData), &ev); err != nil {
		t.Fatalf("last event %q: %v", lastData, err)
	}
	if ev.Type != "error" || !strings.Contains(ev.Error, "shutting down") {
		t.Fatalf("last event = %+v, want shutdown error", ev)
	}
}

// TestTerminalFollowsPersistence: a job turns terminal only after its
// record write has returned, its run report is attached and its tenant's
// budget is released. The record write is held 500 ms, so a state shown
// ahead of it would find /report still 404 and the tenant's next submit
// still over its cap.
func TestTerminalFollowsPersistence(t *testing.T) {
	store, _ := diskStore(t)
	store.Faults = faults.New(1)
	store.Faults.Set(PointResult, faults.Knob{Every: 1, Delay: 500 * time.Millisecond})
	_, url := testServer(t, Config{Workers: 1, TenantBudgetCap: 1000, Store: store})
	// Each job's budget fits the cap only once the one before it is
	// released.
	req := func(seed int64) OptimizeRequest {
		return OptimizeRequest{Model: "ncf", Budget: 600, Seed: seed, Tenant: "metered"}
	}
	first, code := submit(t, url, req(1))
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	waitState(t, url, first.ID, StateDone, time.Minute)
	if code, body := getBody(t, url+"/v1/jobs/"+first.ID+"/report"); code != http.StatusOK {
		t.Errorf("report once done: HTTP %d: %s", code, body)
	}
	second, code := submit(t, url, req(2))
	if code != http.StatusAccepted {
		t.Fatalf("submit after done: HTTP %d, want 202", code)
	}

	// The same through the SSE stream: when the terminal event arrives,
	// the report is served and the budget is free.
	resp, err := http.Get(url + "/v1/jobs/" + second.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("event %q: %v", data, err)
		}
		if ev.Type != "state" || !ev.State.Terminal() {
			continue
		}
		if ev.State != StateDone {
			t.Fatalf("terminal event %+v, want done", ev)
		}
		if code, body := getBody(t, url+"/v1/jobs/"+second.ID+"/report"); code != http.StatusOK {
			t.Errorf("report at the terminal event: HTTP %d: %s", code, body)
		}
		if _, code := submit(t, url, req(3)); code != http.StatusAccepted {
			t.Errorf("submit at the terminal event: HTTP %d, want 202", code)
		}
		return
	}
	t.Fatalf("stream ended without a terminal event: %v", sc.Err())
}
