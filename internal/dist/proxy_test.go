package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"testing"

	"digamma/internal/core"
)

// rewriteProxy relays coordinator sessions to a worker over loopback.
// Coordinator frames pass through untouched. Every worker frame is
// decoded as its message type and re-encoded, binary round acks and JSON
// alike; edit changes each frame of type typ in between. It returns the
// proxy's address, which is the worker's name as the coordinator sees
// it.
func rewriteProxy[T any](t *testing.T, worker string, typ byte, edit func(*T)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			coord, err := l.Accept()
			if err != nil {
				return
			}
			w, err := net.Dial("tcp", worker)
			if err != nil {
				coord.Close()
				continue
			}
			go func() {
				io.Copy(w, coord)
				w.Close()
			}()
			go func() {
				defer coord.Close()
				src, dst := &frameConn{rw: w}, &frameConn{rw: coord}
				for {
					got, body, err := src.readMsg()
					if err != nil {
						return
					}
					msg := messageFor(got)
					if err := decodeBody(got, body, msg); err != nil {
						t.Error(err)
						return
					}
					if got == typ {
						edit(msg.(*T))
					}
					if err := dst.writeMsg(got, msg); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// TestMalformedRoundAckFatal: a round ack that reports the wrong islands,
// an island twice, or a history shorter than the segment fails the run
// with an error naming the worker. Before the check, a short history
// panicked in emitSegment, and a misdirected report made the coordinator
// send the requested island's round again. The boundary completions an
// ack carries are held to the same standard: they must complete exactly
// the islands of a round that delivered migrants, each at the
// schedule's counts, and a round that delivered nothing gets none. The
// proxied worker owns islands 0 and 2 of the chaos spec, both
// full-fidelity.
func TestMalformedRoundAckFatal(t *testing.T) {
	spec := chaosSpec(t, 7)
	for _, c := range []struct {
		name, want string
		edit       func(*roundAck)
	}{
		{"short-hist", "history entries", func(a *roundAck) { a.Reports[0].Hist = nil }},
		{"unrequested-island", "reports islands", func(a *roundAck) { a.Reports[0].Island = 1 }},
		{"duplicate-island", "reports islands", func(a *roundAck) { a.Reports[1].Island = a.Reports[0].Island }},
		{"completion-missing", "boundary completions: reports islands", func(a *roundAck) {
			if len(a.Completions) > 0 {
				a.Completions = a.Completions[1:]
			}
		}},
		{"completion-repeated", "boundary completions: reports islands", func(a *roundAck) {
			if len(a.Completions) > 1 {
				a.Completions[1].Island = a.Completions[0].Island
			}
		}},
		{"completion-samples", "boundary completions: island 0 spent", func(a *roundAck) {
			if len(a.Completions) > 0 {
				a.Completions[0].Samples++
			}
		}},
		{"completion-unpending", "boundary completions: reports islands [0], requested []", func(a *roundAck) {
			if len(a.Completions) == 0 {
				a.Completions = []core.ShardReport{{Island: 0, Gen: a.Reports[0].Gen, Samples: a.Reports[0].Samples}}
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := rewriteProxy(t, startWorker(t, WorkerOptions{Workers: 1}), mtRoundAck, c.edit)
			res, logs, err := runCoord(t, spec, 480, &Coordinator{Workers: []string{bad, startWorker(t, WorkerOptions{Workers: 1})}})
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "worker "+bad) {
				t.Fatalf("run returned %v, err %v; want a %q error naming worker %s (log: %s)", res != nil, err, c.want, bad, logs)
			}
		})
	}
}

// TestProtoV2WorkerDeclined: a worker that acks the hello with an older
// protocol version — 2, with JSON elites, or 3, with a separate migrants
// wave — is refused at the handshake, and the run declines to the
// in-process path, bit-identical to a run without workers.
func TestProtoV2WorkerDeclined(t *testing.T) {
	spec := chaosSpec(t, 7)
	ref := runLocal(t, spec, 480)
	for _, old := range []int{2, ProtoVersion - 1} {
		stale := rewriteProxy(t, startWorker(t, WorkerOptions{Workers: 1}), mtHelloAck, func(a *helloAck) { a.Proto = old })

		var logBuf bytes.Buffer
		eng, err := spec.Engine(1)
		if err != nil {
			t.Fatal(err)
		}
		eng.Placement = &Coordinator{Spec: spec, Workers: []string{stale, startWorker(t, WorkerOptions{Workers: 1})}, Log: log.New(&logBuf, "", 0)}
		res, err := eng.RunContext(context.Background(), 480)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("protocol %d, want %d", old, ProtoVersion)
		if logs := logBuf.String(); !strings.Contains(logs, "declining run") || !strings.Contains(logs, want) {
			t.Fatalf("log lacks the protocol decline %q: %s", want, logs)
		}
		sameResult(t, fmt.Sprintf("v%d-declined", old), res, ref)
	}
}
