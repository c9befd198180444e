package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"strings"
	"testing"
)

// rewriteProxy relays coordinator sessions to a worker over loopback.
// Coordinator frames pass through untouched; every worker frame of type
// typ has its JSON body replaced by edit's result before it is re-framed.
// It returns the proxy's address, which is the worker's name as the
// coordinator sees it.
func rewriteProxy(t *testing.T, worker string, typ byte, edit func(body []byte) []byte) string {
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
					if got == typ {
						body = edit(body)
					}
					if err := dst.writeMsg(got, json.RawMessage(body)); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

// rewrite decodes a frame body as T, applies f and re-encodes it.
func rewrite[T any](t *testing.T, f func(*T)) func([]byte) []byte {
	return func(body []byte) []byte {
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			t.Error(err)
			return body
		}
		f(&v)
		out, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
			return body
		}
		return out
	}
}

// TestMalformedRoundAckFatal: a round ack that reports the wrong islands,
// an island twice, or a history shorter than the segment fails the run
// with an error naming the worker. Before the check, a short history
// panicked in emitSegment, and a misdirected report made the coordinator
// send the requested island's round again. The proxied worker owns
// islands 0 and 2 of the chaos spec, both full-fidelity.
func TestMalformedRoundAckFatal(t *testing.T) {
	spec := chaosSpec(t, 7)
	for _, c := range []struct {
		name, want string
		edit       func(*roundAck)
	}{
		{"short-hist", "history entries", func(a *roundAck) { a.Reports[0].Hist = nil }},
		{"unrequested-island", "reports islands", func(a *roundAck) { a.Reports[0].Island = 1 }},
		{"duplicate-island", "reports islands", func(a *roundAck) { a.Reports[1].Island = a.Reports[0].Island }},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := rewriteProxy(t, startWorker(t, WorkerOptions{Workers: 1}), mtRoundAck, rewrite(t, c.edit))
			res, logs, err := runCoord(t, spec, 480, &Coordinator{Workers: []string{bad, startWorker(t, WorkerOptions{Workers: 1})}})
			if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "worker "+bad) {
				t.Fatalf("run returned %v, err %v; want a %q error naming worker %s (log: %s)", res != nil, err, c.want, bad, logs)
			}
		})
	}
}

// TestProtoV2WorkerDeclined: a worker that acks the hello with protocol
// version 2 is refused at the handshake, and the run declines to the
// in-process path, bit-identical to a run without workers.
func TestProtoV2WorkerDeclined(t *testing.T) {
	spec := chaosSpec(t, 7)
	ref := runLocal(t, spec, 480)
	v2 := rewriteProxy(t, startWorker(t, WorkerOptions{Workers: 1}), mtHelloAck, rewrite(t, func(a *helloAck) { a.Proto = 2 }))

	var logBuf bytes.Buffer
	eng, err := spec.Engine(1)
	if err != nil {
		t.Fatal(err)
	}
	eng.Placement = &Coordinator{Spec: spec, Workers: []string{v2, startWorker(t, WorkerOptions{Workers: 1})}, Log: log.New(&logBuf, "", 0)}
	res, err := eng.RunContext(context.Background(), 480)
	if err != nil {
		t.Fatal(err)
	}
	if logs := logBuf.String(); !strings.Contains(logs, "declining run") || !strings.Contains(logs, "protocol 2, want 3") {
		t.Fatalf("log lacks the protocol decline: %s", logs)
	}
	sameResult(t, "v2-declined", res, ref)
}
