package serve

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"digamma"
	"digamma/internal/faults"
	"digamma/internal/report"
)

// Store persists digammad's job lifecycle so a crash or redeploy loses no
// accepted work: an append-only log of accepted request specs, terminal
// results, and the latest engine checkpoint per in-flight job. Recover
// replays all three into the startup path — incomplete jobs re-enqueue
// (resuming from their checkpoint), completed ones serve status and dedup
// hits again.
//
// All methods may be called concurrently. Close flushes and releases the
// store; from the store's point of view a process crash and a Close are
// the same event, which is what lets the in-process chaos tests simulate
// kill/restart cycles.
type Store interface {
	// LogAccepted durably appends one accepted job before the submit call
	// returns — the job either never existed or is recoverable, no
	// in-between.
	LogAccepted(rec JobRecord) error
	// LogBatch durably appends one accepted batch — all member records in
	// one frame with one flush, so a K-item batch pays a single fsync
	// where K independent submits pay K. Atomic like LogAccepted: the
	// whole batch is recoverable or none of it is.
	LogBatch(rec BatchRecord) error
	// SaveTerminal records a job's terminal state. It need not be atomic
	// or durable: recovery treats a missing or undecodable record as
	// "never finished" and re-runs the job to its deterministic result.
	SaveTerminal(rec TerminalRecord) error
	// SaveCheckpoint replaces the job's latest resumable engine
	// checkpoint, with the same recovery contract as SaveTerminal: a torn
	// checkpoint is ignored and the job starts over.
	SaveCheckpoint(id string, ck *digamma.Checkpoint) error
	// SaveReport atomically persists a terminal job's run-report JSON
	// (GET /v1/jobs/{id}/report), so the phase/operator breakdown
	// survives a restart alongside the result.
	SaveReport(id string, data []byte) error
	// LoadReport returns a previously saved run report, or (nil, nil)
	// when none was persisted for the id.
	LoadReport(id string) ([]byte, error)
	// Recover returns every accepted job in acceptance order, joined with
	// its terminal record and latest checkpoint when present.
	Recover() ([]RecoveredJob, error)
	// Close flushes and releases the store.
	Close() error
}

// JobRecord is the WAL entry for one accepted job. Batch members carry
// three extra fields: Batch (the owning batch ID), BatchIndex (the
// member's position in the submitted item list) and Dedup — a Dedup
// member is a reference to a job accepted earlier (its ID points at the
// dedup target and no new job exists for it), so recovery rebuilds the
// batch's membership without resurrecting a duplicate job.
type JobRecord struct {
	ID         string          `json:"id"`
	Hash       string          `json:"hash"`
	CreatedAt  time.Time       `json:"created_at"`
	Req        OptimizeRequest `json:"request"`
	Batch      string          `json:"batch,omitempty"`
	BatchIndex int             `json:"batch_index,omitempty"`
	Dedup      bool            `json:"dedup,omitempty"`
}

// BatchRecord is the WAL entry for one accepted batch: every member in
// acceptance order, logged as a single frame. Kind discriminates batch
// frames from plain job frames in the shared WAL (always "batch" on the
// wire; plain job frames predate the field and omit it).
type BatchRecord struct {
	Kind      string      `json:"kind"` // "batch"
	ID        string      `json:"id"`
	Tenant    string      `json:"tenant,omitempty"`
	CreatedAt time.Time   `json:"created_at"`
	Members   []JobRecord `json:"members"`
}

// TerminalRecord is a job's persisted terminal state. Result carries the
// serialized report (the wire shape clients read), not the live
// evaluation — recovery restores what GET /v1/jobs/{id} returns, it never
// re-runs the cost model.
type TerminalRecord struct {
	ID         string         `json:"id"`
	Hash       string         `json:"hash"`
	State      State          `json:"state"`
	Error      string         `json:"error,omitempty"`
	FinishedAt time.Time      `json:"finished_at"`
	Result     *report.Report `json:"result,omitempty"`
}

// RecoveredJob joins one accepted job with whatever outcome survived.
type RecoveredJob struct {
	Record   JobRecord
	Terminal *TerminalRecord     // nil: the job never finished — re-enqueue it
	Resume   *digamma.Checkpoint // latest checkpoint, nil if none was written
}

// nullStore is the default when no durability is configured: every write
// succeeds by doing nothing and recovery finds nothing — the exact
// in-memory-only behaviour earlier trees shipped.
type nullStore struct{}

func (nullStore) LogAccepted(JobRecord) error                      { return nil }
func (nullStore) LogBatch(BatchRecord) error                       { return nil }
func (nullStore) SaveTerminal(TerminalRecord) error                { return nil }
func (nullStore) SaveCheckpoint(string, *digamma.Checkpoint) error { return nil }
func (nullStore) SaveReport(string, []byte) error                  { return nil }
func (nullStore) LoadReport(string) ([]byte, error)                { return nil, nil }
func (nullStore) Recover() ([]RecoveredJob, error)                 { return nil, nil }
func (nullStore) Close() error                                     { return nil }

// Injection points of the Store write paths (DiskStore.Faults).
const (
	PointWAL        = "store.wal"
	PointResult     = "store.result"
	PointCheckpoint = "store.checkpoint"
	PointReport     = "store.report"
)

// DiskStore persists jobs under a data directory:
//
//	wal.log           append-only CRC-framed JSONL of accepted JobRecords
//	results/<id>.json TerminalRecord, written in place (directWrite)
//	ckpt/<id>.json    latest engine Checkpoint, overwritten in place (directWrite)
//	report/<id>.json  run report (phase/operator breakdown), temp file + rename
//
// The WAL is the source of truth for acceptance: a record is fsynced
// before the submit returns 202, so an accepted job survives any
// subsequent crash, and a torn WAL tail (a crash mid-append) is detected
// by its CRC frame and truncated away without losing any earlier record.
// Results and checkpoints are written in place without fsync: a file torn
// by a crash fails to decode at the next startup, and Recover re-runs its
// job from the WAL record.
type DiskStore struct {
	dir string

	// Faults, when set, injects write failures at PointWAL, PointResult,
	// PointCheckpoint and PointReport — the chaos suite's store-fault knobs.
	Faults *faults.Injector

	mu       sync.Mutex
	wal      *os.File
	replayed []JobRecord
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir,
// replaying the WAL and truncating any torn tail before reopening it for
// append.
func OpenDiskStore(dir string) (*DiskStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "ckpt"), filepath.Join(dir, "report")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &DiskStore{dir: dir}
	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	records, valid := replayWAL(data)
	if valid < len(data) {
		// Torn tail (crash mid-append): keep the valid prefix. Truncation
		// happens before the file is reopened for append, so the next
		// record starts at a clean frame boundary.
		if err := os.Truncate(walPath, int64(valid)); err != nil {
			return nil, fmt.Errorf("store: truncating torn WAL tail: %w", err)
		}
	}
	s.replayed = records
	if s.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// replayWAL decodes the valid prefix of WAL bytes, returning the records
// and the byte offset of the first invalid frame (== len(data) when the
// log is wholly valid). Each frame is "%08x <json>\n" with the CRC32
// (IEEE) of the JSON payload — enough to catch a torn or bit-rotted tail
// without a heavyweight format. A frame whose payload carries
// `"kind":"batch"` is a BatchRecord; its members flatten into the job
// stream in order (the whole batch was one atomic append, so either every
// member replays or the torn-tail truncation drops them all). Plain
// frames — including every pre-batch WAL ever written — decode as before.
func replayWAL(data []byte) ([]JobRecord, int) {
	var records []JobRecord
	off := 0
	for off < len(data) {
		nl := -1
		for i := off; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // no trailing newline: torn tail
		}
		line := string(data[off:nl])
		crcHex, payload, ok := strings.Cut(line, " ")
		if !ok || len(crcHex) != 8 {
			break
		}
		var crc uint32
		if _, err := fmt.Sscanf(crcHex, "%08x", &crc); err != nil {
			break
		}
		if crc32.ChecksumIEEE([]byte(payload)) != crc {
			break
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(payload), &kind); err != nil {
			break
		}
		if kind.Kind == "batch" {
			var rec BatchRecord
			if err := json.Unmarshal([]byte(payload), &rec); err != nil {
				break
			}
			records = append(records, rec.Members...)
		} else {
			var rec JobRecord
			if err := json.Unmarshal([]byte(payload), &rec); err != nil {
				break
			}
			records = append(records, rec)
		}
		off = nl + 1
	}
	return records, off
}

func (s *DiskStore) LogAccepted(rec JobRecord) error { return s.appendWAL(rec) }

// LogBatch appends the whole batch as one CRC frame with one fsync — the
// durability amortization batch submission exists for.
func (s *DiskStore) LogBatch(rec BatchRecord) error {
	rec.Kind = "batch"
	return s.appendWAL(rec)
}

// appendWAL writes one record as a CRC frame and fsyncs it. Acceptance is
// a durability promise (the submit hands out a job ID the client may poll
// after a crash), so it is the one write worth an fsync on the request
// path.
func (s *DiskStore) appendWAL(rec any) error {
	if err := s.Faults.Hit(PointWAL); err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	frame := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.wal.WriteString(frame); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *DiskStore) SaveTerminal(rec TerminalRecord) error {
	if err := s.Faults.Hit(PointResult); err != nil {
		return err
	}
	return s.directWrite(filepath.Join(s.dir, "results", rec.ID+".json"), rec)
}

func (s *DiskStore) SaveCheckpoint(id string, ck *digamma.Checkpoint) error {
	if err := s.Faults.Hit(PointCheckpoint); err != nil {
		return err
	}
	return s.directWrite(filepath.Join(s.dir, "ckpt", id+".json"), ck)
}

func (s *DiskStore) SaveReport(id string, data []byte) error {
	if err := s.Faults.Hit(PointReport); err != nil {
		return err
	}
	return s.atomicWriteRaw(filepath.Join(s.dir, "report", id+".json"), data)
}

func (s *DiskStore) LoadReport(id string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "report", id+".json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	return data, err
}

// directWrite marshals v straight into the final path — no temp file, no
// rename, no fsync. Safe for results and checkpoints because nothing
// reads them while the server runs: they are consumed only by Recover at
// the next startup, and a crash-torn file fails JSON decode there, which
// Recover already treats as "never finished" — the job re-runs to its
// deterministic result. Each of these files is written exactly once per
// job (results) or overwritten in place (checkpoints), so cutting the
// temp-create + rename halves the syscall count on the worker's
// per-job persistence path.
func (s *DiskStore) directWrite(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// atomicWriteRaw writes pre-serialized bytes via temp file + rename.
//
// Deliberately no fsync: results, checkpoints and reports are all
// re-derivable — the engine is deterministic, so a terminal record or
// checkpoint lost to power failure just means recovery re-enqueues the
// job (the WAL acceptance frame IS fsynced) and recomputes the identical
// result. The rename keeps readers and same-machine restarts safe (they
// see the whole file or the old one), and the pathological power-loss
// case — a renamed-but-empty file — fails JSON decode in Recover, which
// already treats an undecodable record as "never finished". Trading that
// recompute for one fsync per write triples sustained throughput when
// searches are sub-millisecond: acceptance keeps the only request-path
// fsync.
func (s *DiskStore) atomicWriteRaw(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (s *DiskStore) Recover() ([]RecoveredJob, error) {
	s.mu.Lock()
	records := s.replayed
	s.mu.Unlock()
	out := make([]RecoveredJob, 0, len(records))
	for _, rec := range records {
		rj := RecoveredJob{Record: rec}
		if data, err := os.ReadFile(filepath.Join(s.dir, "results", rec.ID+".json")); err == nil {
			var term TerminalRecord
			if json.Unmarshal(data, &term) == nil {
				rj.Terminal = &term
			}
		}
		if rj.Terminal == nil {
			if data, err := os.ReadFile(filepath.Join(s.dir, "ckpt", rec.ID+".json")); err == nil {
				if ck, err := digamma.UnmarshalCheckpoint(data); err == nil {
					rj.Resume = ck
				}
			}
		}
		out = append(out, rj)
	}
	return out, nil
}

func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Sync()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}
