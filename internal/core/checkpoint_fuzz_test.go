package core

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"digamma/internal/mapping"
)

// The resume fuzz target's run: a two-island ncf search over a small
// population, checkpointed every two generations. Small enough that a
// checkpoint is a few kilobytes and a resumed run takes a millisecond,
// deep enough to carry a migration and full broods.
const (
	fuzzSeed   = 3
	fuzzBudget = 96
)

func fuzzEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.PopSize = 12
	cfg.Workers = 2
	cfg.Islands = 2
	cfg.MigrateEvery = 2
	cfg.CheckpointEvery = 2
	e, err := NewSeeded(zooProblem(t, "ncf"), cfg, fuzzSeed)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fuzzCheckpoint returns the JSON of the fuzz run's first checkpoint.
func fuzzCheckpoint(t *testing.T) []byte {
	t.Helper()
	e := fuzzEngine(t)
	var blob []byte
	e.OnCheckpoint = func(ck *Checkpoint) {
		if blob == nil {
			var err error
			if blob, err = ck.Marshal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := e.Run(fuzzBudget); err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("fuzz run emitted no checkpoint")
	}
	return blob
}

// mutatePop returns a corruption that decodes island i's population,
// lets mutate change the states and re-encodes them, so a malformed genome
// reaches resume as well-formed bytes and tests rebuild, not the decoder.
func mutatePop(i int, mutate func(pop []IndividualState)) func(ck *Checkpoint) {
	return func(ck *Checkpoint) {
		pop, err := DecodeStates(ck.Islands[i].Pop)
		if err != nil {
			panic(err) // the fuzz run's own checkpoint always decodes
		}
		mutate(pop)
		ck.Islands[i].Pop = AppendStates(nil, pop)
	}
}

// checkpointCorruptions are hand-made malformations of a valid checkpoint,
// each of which resume must refuse with an error. They double as the
// committed seed corpus of FuzzCheckpointResume.
var checkpointCorruptions = map[string]func(ck *Checkpoint){
	"short-maps":        mutatePop(0, func(pop []IndividualState) { pop[0].Maps = []mapping.Mapping{} }),
	"no-fanouts":        mutatePop(0, func(pop []IndividualState) { pop[0].Fanouts = nil }),
	"zero-fanout":       mutatePop(0, func(pop []IndividualState) { pop[1].Fanouts[0] = 0 }),
	"ragged-layer":      mutatePop(1, func(pop []IndividualState) { m := &pop[0].Maps[0]; m.Levels = m.Levels[:len(m.Levels)-1] }),
	"zero-tile":         mutatePop(0, func(pop []IndividualState) { pop[0].Maps[0].Levels[0].Tiles[0] = 0 }),
	"bad-spatial":       mutatePop(0, func(pop []IndividualState) { pop[0].Maps[0].Levels[0].Spatial = 99 }),
	"pruned-malformed":  mutatePop(0, func(pop []IndividualState) { pop[0].Pruned = true; pop[0].Maps = nil }),
	"wrong-fitness":     mutatePop(0, func(pop []IndividualState) { pop[0].Fitness++ }),
	"empty-pop":         func(ck *Checkpoint) { ck.Islands[0].Pop = AppendStates(nil, nil) },
	"pop-truncated":     func(ck *Checkpoint) { p := ck.Islands[0].Pop; ck.Islands[0].Pop = p[:len(p)-1] },
	"pop-trailing-byte": func(ck *Checkpoint) { ck.Islands[0].Pop = append(ck.Islands[0].Pop, 0) },
	"runaway-draws":     func(ck *Checkpoint) { ck.Islands[0].Draws = 1 << 62 },
	"negative-samples":  func(ck *Checkpoint) { ck.Samples = -1 << 40 },
	"island-overspent":  func(ck *Checkpoint) { ck.Islands[1].Samples += 1 << 20; ck.Samples += 1 << 20; ck.FullEvals += 1 << 20 },
	"split-mismatch":    func(ck *Checkpoint) { ck.FullEvals++ },
	"short-history":     func(ck *Checkpoint) { ck.History = ck.History[:0] },
	"missing-island":    func(ck *Checkpoint) { ck.Islands = ck.Islands[:1] },
}

// resume runs the fuzz run from a checkpoint and returns its refusal, or
// nil when the run completes.
func resume(t *testing.T, ck *Checkpoint) error {
	t.Helper()
	e := fuzzEngine(t)
	e.Resume = ck
	_, err := e.Run(fuzzBudget)
	return err
}

// committedSeed decodes one seed of the committed FuzzCheckpointResume
// corpus.
func committedSeed(t *testing.T, name string) (*Checkpoint, error) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzCheckpointResume", name))
	if err != nil {
		t.Fatal(err)
	}
	quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("seed %s is not a one-value []byte corpus file", name)
	}
	blob, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return UnmarshalCheckpoint([]byte(blob))
}

// TestResumeMalformedCheckpoint: every corruption of a valid checkpoint is
// refused with an error — before the fix, a genome shorter than the
// model's layer list panicked inside restore with an index out of range.
// The committed seed of the same name is refused with the same error: by
// the check it was written for, not by a version or config-sum mismatch
// left over from an older format.
func TestResumeMalformedCheckpoint(t *testing.T) {
	blob := fuzzCheckpoint(t)
	for name, corrupt := range checkpointCorruptions {
		t.Run(name, func(t *testing.T) {
			ck, err := UnmarshalCheckpoint(blob)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(ck)
			want := resume(t, ck)
			if want == nil {
				t.Fatal("corrupt checkpoint resumed, want an error")
			}
			seed, err := committedSeed(t, name)
			if err == nil {
				err = resume(t, seed)
			}
			if err == nil || err.Error() != want.Error() {
				t.Errorf("committed seed refused with %v, the corruption itself with %v", err, want)
			}
		})
	}
	// The uncorrupted checkpoint still resumes.
	ck, err := UnmarshalCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := resume(t, ck); err != nil {
		t.Fatalf("valid checkpoint: %v", err)
	}
}

// TestCommittedValidSeedResumes: the committed corpus's valid seed
// resumes without error. A format change that forgets to regenerate the
// corpus would leave every seed refused by the version check alone, so
// the fuzz target would test nothing; this fails by name instead.
func TestCommittedValidSeedResumes(t *testing.T) {
	ck, err := committedSeed(t, "valid")
	if err == nil {
		err = resume(t, ck)
	}
	if err != nil {
		t.Fatalf("committed valid seed: %v", err)
	}
}

// FuzzCheckpointResume: decoding and resuming arbitrary checkpoint bytes
// returns an error or a result — never a panic, a runaway RNG
// fast-forward or a loop that cannot finish. The committed corpus holds
// the valid fuzz-run checkpoint and each hand-made corruption above.
func FuzzCheckpointResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalCheckpoint(data)
		if err != nil {
			return
		}
		e := fuzzEngine(t)
		e.Resume = ck
		res, err := e.Run(fuzzBudget)
		if err == nil && res.Samples > fuzzBudget {
			t.Fatalf("resumed run spent %d samples of a %d budget", res.Samples, fuzzBudget)
		}
	})
}
