package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// FuzzBatchRequest: a POST /v1/batches body of arbitrary bytes resolves
// to specs or to an error wrapping errBadRequest (HTTP 400), never a
// panic, under the server's default budget and item caps. Resolution is
// deterministic, and a spec rebuilt from its normalized request after a
// JSON round trip — what recovery does with a WAL record — keeps its
// hash. The committed corpus holds a valid two-item batch, an item with
// both a model and inline layers, a negative budget, a budget over the
// cap, an unknown platform, an unknown field, a truncated body and more
// items than the cap.
func FuzzBatchRequest(f *testing.F) {
	cfg := Config{}.withDefaults()
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeBatch(bytes.NewReader(body), "", cfg.MaxBudget, cfg.MaxBatchItems)
		if err != nil {
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("error does not wrap errBadRequest: %v", err)
			}
			return
		}
		again, err := decodeBatch(bytes.NewReader(body), "", cfg.MaxBudget, cfg.MaxBatchItems)
		if err != nil {
			t.Fatalf("second decode of the same body failed: %v", err)
		}
		for i, spec := range specs {
			if again[i].hash != spec.hash {
				t.Fatalf("item %d hashes %s, then %s", i, spec.hash, again[i].hash)
			}
			data, err := json.Marshal(spec.req)
			if err != nil {
				t.Fatal(err)
			}
			var req OptimizeRequest
			if err := json.Unmarshal(data, &req); err != nil {
				t.Fatalf("item %d request does not round-trip: %v", i, err)
			}
			rebuilt, err := buildSpec(req, cfg.MaxBudget)
			if err != nil {
				t.Fatalf("item %d: rebuilding %s: %v", i, data, err)
			}
			if rebuilt.hash != spec.hash {
				t.Fatalf("item %d: rebuilt from %s hashes %s, want %s", i, data, rebuilt.hash, spec.hash)
			}
		}
	})
}
