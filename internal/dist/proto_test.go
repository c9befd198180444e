package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
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
	case mtRoundAck, mtMigrantsAck:
		return &roundAck{}
	case mtMigrants:
		return &migrantsMsg{}
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
// allocation sized by an unchecked length prefix. The seed corpus in
// testdata holds one valid frame per message type plus truncated,
// bad-CRC and oversize-length frames.
func FuzzFrameDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for typ := mtHello; typ <= mtFinalizeAck; typ++ {
			readerConn(data).expect(typ, messageFor(typ))
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
// intact, and the coordinator forwards those bytes as migrants that the
// worker decodes back into the same elites.
func TestWirePairs(t *testing.T) {
	elites := []core.IndividualState{{Fanouts: []int{4, 2}, Maps: []mapping.Mapping{}, Fitness: 1.5}, {Fanouts: []int{2}, Maps: []mapping.Mapping{}, Fitness: 7, Pruned: true}}
	enc := core.AppendStates(nil, elites)
	roundTrip := func(typ byte, msg, v any) {
		t.Helper()
		var buf bytes.Buffer
		if err := (&frameConn{rw: pipeConn{Reader: &buf, Writer: &buf}}).writeMsg(typ, msg); err != nil {
			t.Fatal(err)
		}
		if err := readerConn(buf.Bytes()).expect(typ, v); err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if !reflect.DeepEqual(reflect.ValueOf(v).Elem().Interface(), msg) {
			t.Fatalf("type %d: decoded %+v, sent %+v", typ, v, msg)
		}
	}

	sent := roundAck{Seq: 3, Reports: []core.ShardReport{{Island: 1, Gen: 2, Samples: 80, Hist: []float64{2.5}, Exports: enc}}}
	var ack roundAck
	roundTrip(mtRoundAck, sent, &ack)

	var mig migrantsMsg
	roundTrip(mtMigrants, migrantsMsg{Seq: 4, Deliveries: []delivery{{ID: 2, Batches: []core.MigrantBatch{{From: 1, Elites: ack.Reports[0].Exports}}}}}, &mig)
	got, err := core.DecodeStates(mig.Deliveries[0].Batches[0].Elites)
	if err != nil || !reflect.DeepEqual(got, elites) {
		t.Fatalf("worker decodes migrants %+v (%v), want %+v", got, err, elites)
	}

	var fin finalizeAck
	roundTrip(mtFinalizeAck, finalizeAck{Finals: []core.ShardFinal{{Island: 0, Best: core.AppendStates(nil, elites[:1]), Samples: 80}, {Island: 1, IsScout: true}}}, &fin)
}
