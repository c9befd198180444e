package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"digamma/internal/core"
	"digamma/internal/mapping"
)

// pipeConn adapts an in-memory reader and writer to the frame layer.
type pipeConn struct {
	io.Reader
	io.Writer
}

func (pipeConn) Close() error { return nil }

// readerConn serves frames from data and refuses writes.
func readerConn(data []byte) *frameConn {
	return &frameConn{rw: pipeConn{Reader: bytes.NewReader(data), Writer: io.Discard}}
}

// messageFor returns a fresh decode target for a message type, as its
// receiver decodes it, or nil for a type the protocol does not define.
func messageFor(typ byte) any {
	switch typ {
	case mtHello:
		return &helloMsg{}
	case mtHelloAck:
		return &helloAck{}
	case mtAdopt:
		return &adoptMsg{}
	case mtAdoptAck:
		return &adoptAck{}
	case mtRound:
		return &roundMsg{}
	case mtRoundAck:
		return &roundAck{}
	case mtFinalize:
		return &finalizeMsg{}
	case mtFinalizeAck:
		return &finalizeAck{}
	}
	return nil
}

// FuzzFrameDecode feeds arbitrary bytes to the frame reader and decodes
// them as every message type, the way a worker or coordinator would.
// Corrupt input must come back as an error: never a panic, never an
// allocation sized by an unchecked length prefix. A binary body that
// decodes re-encodes to exactly its bytes: each message has one byte
// form. The seed corpus in testdata holds one valid frame per message
// type, a round with deliveries and a round ack with completions, plus
// truncated, bad-CRC and oversize-length frames.
func FuzzFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for typ := mtHello; typ <= mtFinalizeAck; typ++ {
			msg := messageFor(typ)
			if readerConn(data).expect(typ, msg) != nil || !binaryType(typ) {
				continue
			}
			_, body, _ := readerConn(data).readMsg()
			again, err := appendBody(nil, typ, msg)
			if err != nil || !bytes.Equal(again, body) {
				t.Fatalf("type %d: body %x decodes to %+v, which re-encodes to %x (%v)", typ, body, msg, again, err)
			}
		}
	})
}

// TestReadMsgAllocTracksBytes: a frame whose length prefix claims the
// maximum payload but whose body stops after a few bytes is torn, and
// reading it allocates for the bytes that arrived, not the claim.
func TestReadMsgAllocTracksBytes(t *testing.T) {
	frame := make([]byte, 4+1024)
	binary.BigEndian.PutUint32(frame, maxFrame)
	frame[4] = mtRoundAck

	const reads = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		if _, _, err := readerConn(frame).readMsg(); !errors.Is(err, ErrTorn) {
			t.Fatalf("short body: %v, want a torn frame", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perRead := (after.TotalAlloc - before.TotalAlloc) / reads; perRead > 1<<20 {
		t.Errorf("reading a %d-byte torn frame allocated %d bytes per read", len(frame), perRead)
	}
}

// TestWirePairs: every message has one concrete type on both ends. A
// worker's round ack reaches the coordinator with the export bytes
// intact, and the coordinator forwards those bytes as deliveries of the
// next round, or of the finalize, that the worker decodes back into the
// same elites.
func TestWirePairs(t *testing.T) {
	elites := []core.IndividualState{{Fanouts: []int{4, 2}, Maps: []mapping.Mapping{}, Fitness: 1.5}, {Fanouts: []int{2}, Maps: []mapping.Mapping{}, Fitness: 7, Pruned: true}}
	enc := core.AppendStates(nil, elites)
	roundTrip := func(typ byte, msg any) any {
		t.Helper()
		var buf bytes.Buffer
		if err := (&frameConn{rw: pipeConn{Reader: &buf, Writer: &buf}}).writeMsg(typ, msg); err != nil {
			t.Fatal(err)
		}
		v := messageFor(typ)
		if err := readerConn(buf.Bytes()).expect(typ, v); err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if !reflect.DeepEqual(v, msg) {
			t.Fatalf("type %d: decoded %+v, sent %+v", typ, v, msg)
		}
		return v
	}
	installs := func(dels []delivery) {
		t.Helper()
		got, err := core.DecodeStates(dels[0].Batches[0].Elites)
		if err != nil || !reflect.DeepEqual(got, elites) {
			t.Fatalf("worker decodes migrants %+v (%v), want %+v", got, err, elites)
		}
	}

	ack := roundTrip(mtRoundAck, &roundAck{Seq: 3,
		Completions: []core.ShardReport{{Island: 1, Gen: 1, Samples: 40}},
		Reports:     []core.ShardReport{{Island: 1, Gen: 2, Samples: 80, Hist: []float64{2.5, math.Inf(1)}, Exports: enc}},
	}).(*roundAck)
	roundTrip(mtRoundAck, &roundAck{Seq: 4, Err: "core: island 9 out of range [0,4)"})
	batches := []core.MigrantBatch{{From: 1, Elites: ack.Reports[0].Exports}}

	next := roundTrip(mtRound, &roundMsg{Seq: 4, IDs: []int{0, 2}, Bodies: 2, Boundary: true,
		Deliveries: []delivery{{ID: 2, Batches: batches}, {ID: 0}}}).(*roundMsg)
	installs(next.Deliveries)
	roundTrip(mtRound, &roundMsg{Seq: 5, IDs: []int{-1}, Bodies: 1})

	fin := roundTrip(mtFinalize, &finalizeMsg{IDs: []int{2}, Deliveries: []delivery{{ID: 2, Batches: batches}}}).(*finalizeMsg)
	installs(fin.Deliveries)
	roundTrip(mtFinalizeAck, &finalizeAck{
		Completions: []core.ShardReport{{Island: 0, Gen: 3, Samples: 120}},
		Finals:      []core.ShardFinal{{Island: 0, Best: core.AppendStates(nil, elites[:1]), Samples: 80}, {Island: 1, IsScout: true}},
	})
}

// TestBinaryBodyStrict: a round or round-ack body is refused when a
// count exceeds the bytes left, a varint is not minimal, a flag is
// neither 0 nor 1, or bytes trail, and a huge count allocates nothing
// for itself.
func TestBinaryBodyStrict(t *testing.T) {
	valid := (&roundMsg{Seq: 1, IDs: []int{0}, Bodies: 2, Boundary: true}).appendBinary(nil)
	huge := binary.AppendUvarint(nil, 1<<62)
	for name, c := range map[string]struct {
		typ  byte
		body []byte
	}{
		"trailing-byte":     {mtRound, append(valid, 0)},
		"truncated":         {mtRound, valid[:len(valid)-1]},
		"flag-2":            {mtRound, []byte{2, 4, 2, 0, 0}},
		"non-minimal-seq":   {mtRound, []byte{0x82, 0x00, 4, 1, 0, 0}},
		"huge-id-count":     {mtRound, append(append([]byte{2, 4, 1}, huge...), make([]byte, 16)...)},
		"huge-report-count": {mtRoundAck, append(append([]byte{2, 0}, huge...), make([]byte, 16)...)},
		"huge-hist-count":   {mtRoundAck, append(append([]byte{2, 0, 0, 1, 0, 2, 4}, huge...), make([]byte, 16)...)},
		"huge-export-size":  {mtRoundAck, append(append([]byte{2, 0, 0, 1, 0, 2, 4, 0}, huge...), make([]byte, 16)...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeBody(c.typ, c.body, messageFor(c.typ))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: body %x decoded", name, c.body)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<10 {
			t.Errorf("%s: decoding %d bytes allocated %d bytes", name, len(c.body), alloc)
		}
	}
	if err := decodeBody(mtRound, valid, &roundMsg{}); err != nil {
		t.Fatalf("valid body refused: %v", err)
	}
}

// TestCorpusValidFrames: every valid-* seed of FuzzFrameDecode's
// committed corpus decodes as the message type its frame names, and the
// hello is one a worker accepts, so the corpus follows the protocol and
// the engine config instead of going stale with them.
func TestCorpusValidFrames(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/FuzzFrameDecode/valid-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no valid seeds (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		quoted, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a one-value []byte corpus file", file)
		}
		typ, body, err := readerConn([]byte(data)).readMsg()
		msg := messageFor(typ)
		if err == nil {
			err = decodeBody(typ, body, msg)
		}
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		if hello, ok := msg.(*helloMsg); ok {
			if _, ack := adoptHello(hello, WorkerOptions{Workers: 1}); ack.Err != "" {
				t.Errorf("%s: a worker refuses the hello: %s", file, ack.Err)
			}
		}
	}
}
