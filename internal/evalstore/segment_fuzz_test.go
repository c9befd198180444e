package evalstore

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzFingerprint pins the corpus to a cost-model version of its own, so
// its valid segments stay valid when cost.Fingerprint moves.
const fuzzFingerprint = "digamma-cost/fuzz"

// FuzzReplaySegment writes arbitrary bytes as a segment and opens the
// store over it. Open must never panic or allocate by an unchecked
// length, and what loads must be a prefix of the valid frames: the
// segment is either discarded whole (foreign magic or fingerprint, no
// header) with nothing loaded, or truncated to a prefix of the input that
// is the magic plus whole CRC-valid frames, whose entries and results are
// exactly what loaded. Replaying that prefix again changes nothing. The
// committed corpus holds valid 'E' and 'R' frames, a torn tail, a bad
// CRC, a foreign fingerprint, a non-JSON 'R' payload, a huge length and a
// CRC-valid 'E' frame whose length disagrees with its level count.
func FuzzReplaySegment(f *testing.F) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// A discarded segment is replaced by a fresh seg-000001.seg, so
		// the input takes a later number to tell the two apart.
		path := filepath.Join(dir, "seg-000007.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o := Options{Dir: dir, Fingerprint: fuzzFingerprint, Log: quiet}
		s, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		recs := append([]ResultRecord(nil), s.results.recs...)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			if st.Loaded != 0 || st.Results != 0 {
				t.Fatalf("discarded segment loaded %d entries and %d results", st.Loaded, st.Results)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, kept) || !bytes.HasPrefix(kept, []byte(segMagic)) {
			t.Fatalf("kept %d bytes that are not a magic-led prefix of the %d-byte input", len(kept), len(data))
		}
		entries, header := 0, false
		want := resultIndex{limit: defaultResultLimit}
		for off := len(segMagic); off < len(kept); {
			payload, next, ok := readFrame(kept, off)
			if !ok {
				t.Fatalf("kept prefix has a broken frame at offset %d", off)
			}
			switch {
			case !header:
				header = payload[0] == recHeader
			case payload[0] == recEntry:
				entries++
			case payload[0] == recResult:
				rec, err := decodeRecord(payload[1:])
				if err != nil {
					t.Fatalf("kept prefix holds an undecodable result at offset %d: %v", off, err)
				}
				want.add(rec)
			default:
				t.Fatalf("kept prefix holds a %q record at offset %d", payload[0], off)
			}
			off = next
		}
		if !header || entries != st.Loaded || !reflect.DeepEqual(want.recs, recs) {
			t.Fatalf("kept prefix holds header=%v, %d entries and results %+v; open loaded %d and %+v",
				header, entries, want.recs, st.Loaded, recs)
		}

		re, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		again := re.Stats()
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if again.Loaded != st.Loaded || again.Results != st.Results {
			t.Fatalf("replaying the kept prefix loaded %+v, first open %+v", again, st)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, kept) {
			t.Fatalf("replaying the kept prefix changed the segment (%v)", err)
		}
	})
}
