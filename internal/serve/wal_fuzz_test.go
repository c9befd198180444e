package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReplayWAL: replaying arbitrary WAL bytes never panics, stops at a
// frame boundary inside the input, and is a pure function of the valid
// prefix: replaying data[:valid] returns the same records and consumes
// all of it. The committed corpus holds a plain frame, a batch frame, a
// torn tail, a bad CRC, a CRC-valid payload that is not JSON and a batch
// with thousands of members.
func FuzzReplayWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := replayWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside [0,%d]", valid, len(data))
		}
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid offset %d is not a frame boundary", valid)
		}
		again, n := replayWAL(data[:valid])
		if n != valid {
			t.Fatalf("replaying the %d-byte valid prefix consumed %d bytes", valid, n)
		}
		a, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("valid prefix replays to different records:\n%s\nvs\n%s", b, a)
		}
	})
}
