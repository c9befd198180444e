package digamma

import (
	"testing"

	"digamma/internal/evalstore"
)

// TestSharedCacheBitIdentical: attaching a shared analysis tier — empty,
// pre-populated by a different search, or reused across runs — never
// changes a result. Pure cache sharing only trades recomputation for
// lookup; the golden matrix here spans objectives, the fixed-HW mapper,
// islands, a vector baseline and a store whose byte budget one search
// overflows, so generations are dropped mid-search.
func TestSharedCacheBitIdentical(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	store := NewAnalysisStore()
	evicting, err := evalstore.Open(evalstore.Options{MaxBytes: 40 << 10})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		opts  Options
		store *AnalysisStore // nil = the store the other cases share
	}{
		{"latency", Options{Budget: 300, Seed: 3}, nil},
		{"edp", Options{Budget: 300, Seed: 5, Objective: EDP}, nil},
		{"islands", Options{Budget: 400, Seed: 9, Islands: 3, MigrateEvery: 2,
			IslandProfiles: []string{"default", "explorer", "scout"}}, nil},
		{"baseline", Options{Budget: 200, Seed: 2, Algorithm: "Random"}, nil},
		{"evicting", Options{Budget: 400, Seed: 6}, evicting},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := Optimize(model, EdgePlatform(), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			shared := tc.opts
			shared.SharedCache = store
			if tc.store != nil {
				shared.SharedCache = tc.store
			}
			// Twice against the same store: the first run feeds it, the
			// second reads analyses the first one (and every earlier case)
			// inserted.
			for pass := 0; pass < 2; pass++ {
				got, err := Optimize(model, EdgePlatform(), shared)
				if err != nil {
					t.Fatal(err)
				}
				if got.Fitness != cold.Fitness || got.Cycles != cold.Cycles {
					t.Fatalf("pass %d: shared tier changed the result: %.12e vs %.12e fitness",
						pass, got.Fitness, cold.Fitness)
				}
			}
		})
	}
	if st := store.Stats(); st.Hits == 0 || st.Inserts == 0 {
		t.Errorf("shared tier never used: %+v", st)
	}
	// The budgeted store holds about a third of one search's analyses, so
	// generations were dropped mid-search.
	if st := evicting.Stats(); st.Inserts == 0 || st.Evicted == 0 {
		t.Errorf("budgeted tier never used or never dropped a generation: %+v", st)
	}

	// Fixed-HW mapper: the shared keys fold the fixed hardware in, so a
	// store warmed by co-opt searches is still sound here.
	base, err := Optimize(model, EdgePlatform(), Options{Budget: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mOpts := Options{Budget: 200, Seed: 4}
	cold, err := OptimizeMapping(model, EdgePlatform(), base.HW, mOpts)
	if err != nil {
		t.Fatal(err)
	}
	mOpts.SharedCache = store
	got, err := OptimizeMapping(model, EdgePlatform(), base.HW, mOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fitness != cold.Fitness {
		t.Errorf("fixed-HW shared run differs: %.12e vs %.12e", got.Fitness, cold.Fitness)
	}
}

// TestSharedCacheCrossSearchHits: a repeat of the same search against a
// warm store recovers analyses from it (the whole point of the tier).
func TestSharedCacheCrossSearchHits(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	store := NewAnalysisStore()
	opts := Options{Budget: 300, Seed: 7, SharedCache: store}
	if _, err := Optimize(model, EdgePlatform(), opts); err != nil {
		t.Fatal(err)
	}
	before := store.Stats()
	if before.Inserts == 0 {
		t.Fatalf("first search inserted nothing: %+v", before)
	}
	if _, err := Optimize(model, EdgePlatform(), opts); err != nil {
		t.Fatal(err)
	}
	after := store.Stats()
	if after.Hits <= before.Hits {
		t.Errorf("repeat search hit the shared tier %d times (was %d)", after.Hits, before.Hits)
	}
}

// TestWarmStartDeterministicOptIn: warm start is a pure function of
// (options, store content) — identical warm runs agree — and records
// land in the store's result index so later searches can seed from them.
func TestWarmStartDeterministicOptIn(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	store := NewAnalysisStore()
	seedOpts := Options{Budget: 400, Seed: 11, SharedCache: store}
	prior, err := Optimize(model, EdgePlatform(), seedOpts)
	if err != nil {
		t.Fatal(err)
	}
	if store.Stats().Results == 0 {
		t.Fatal("completed search not recorded in the result index")
	}

	warmOpts := Options{Budget: 300, Seed: 13, SharedCache: store, WarmStart: true}
	a, err := Optimize(model, EdgePlatform(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(model, EdgePlatform(), warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fitness != b.Fitness || a.Cycles != b.Cycles {
		t.Errorf("warm start not deterministic: %.12e vs %.12e", a.Fitness, b.Fitness)
	}
	// The warm seed is the prior's repaired best; the warm search starts
	// from at least that quality, so it must never end up worse than the
	// prior it seeded from (same model, platform, objective).
	if a.Fitness > prior.Fitness {
		t.Errorf("warm run (%.12e) worse than its seed (%.12e)", a.Fitness, prior.Fitness)
	}
}

// TestWarmStartChangesTrajectory documents why WarmStart is opt-in and
// dedup-hashed: unlike pure cache sharing, it perturbs the search.
func TestWarmStartChangesTrajectory(t *testing.T) {
	model, err := LoadModel("ncf")
	if err != nil {
		t.Fatal(err)
	}
	store := NewAnalysisStore()
	if _, err := Optimize(model, EdgePlatform(), Options{Budget: 400, Seed: 11, SharedCache: store}); err != nil {
		t.Fatal(err)
	}
	cold, err := Optimize(model, EdgePlatform(), Options{Budget: 300, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Optimize(model, EdgePlatform(), Options{
		Budget: 300, Seed: 13, SharedCache: store, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Fitness == warm.Fitness && cold.Cycles == warm.Cycles &&
		cold.Genome.NumPEs() == warm.Genome.NumPEs() {
		t.Logf("warm and cold runs coincided (possible but unexpected); fitness %.12e", warm.Fitness)
	}
}
