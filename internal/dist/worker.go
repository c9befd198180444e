package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"sort"

	"digamma/internal/core"
	"digamma/internal/faults"
)

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// Log receives session lifecycle lines; nil silences the worker.
	Log *log.Logger
	// Faults arms the dist.* chaos points on every session connection.
	Faults *faults.Injector
	// Workers caps per-process evaluation parallelism (0 = GOMAXPROCS).
	Workers int
}

// Serve accepts coordinator sessions on l until the listener is closed.
// Each connection is an independent session: the hello's Spec rebuilds
// the engine, adoption assigns islands, and rounds step them in lockstep
// with every other shard of the same run. Sessions are served
// concurrently (one goroutine each); within a session requests are
// strictly sequential, matching the coordinator's one-ack-per-request
// protocol.
func Serve(l net.Listener, opts WorkerOptions) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			if err := session(conn, opts); err != nil && opts.Log != nil {
				opts.Log.Printf("dist worker: session %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// ServeConn runs one session over an existing connection — the loopback
// hook for in-process protocol tests.
func ServeConn(conn io.ReadWriteCloser, opts WorkerOptions) error {
	defer conn.Close()
	return session(conn, opts)
}

// session speaks the coordinator protocol over one connection. Transport
// errors end the session (the coordinator re-homes this worker's
// islands); runner errors are reported in the ack and are fatal to the
// run — they are deterministic (divergent cost model, protocol misuse)
// and would replay identically elsewhere.
func session(conn io.ReadWriteCloser, opts WorkerOptions) error {
	fc := &frameConn{rw: conn, inj: opts.Faults}

	var hello helloMsg
	if err := fc.expect(mtHello, &hello); err != nil {
		return err
	}
	runner, ack := adoptHello(&hello, opts)
	if err := fc.writeMsg(mtHelloAck, ack); err != nil {
		return err
	}
	if runner == nil {
		return fmt.Errorf("dist: refused hello: %s", ack.Err)
	}
	if opts.Log != nil {
		opts.Log.Printf("dist worker: session open: %d islands, budget %d, sum %s",
			runner.Islands(), hello.Budget, ack.ConfigSum[:min(12, len(ack.ConfigSum))])
	}

	for {
		typ, body, err := fc.readMsg()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if err := dispatch(fc, runner, typ, body); err != nil {
			return err
		}
	}
}

// adoptHello validates a hello and builds the session's runner; a nil
// runner means the handshake was refused and ack.Err says why.
func adoptHello(hello *helloMsg, opts WorkerOptions) (*core.ShardRunner, helloAck) {
	ack := helloAck{Proto: ProtoVersion}
	if hello.Proto != ProtoVersion {
		ack.Err = fmt.Sprintf("protocol version %d, want %d", hello.Proto, ProtoVersion)
		return nil, ack
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	eng, err := hello.Spec.Engine(workers)
	if err != nil {
		ack.Err = err.Error()
		return nil, ack
	}
	ack.ConfigSum = eng.ConfigSum()
	if ack.ConfigSum != hello.ConfigSum {
		ack.Err = fmt.Sprintf("config sum mismatch: worker %s, coordinator %s", ack.ConfigSum, hello.ConfigSum)
		return nil, ack
	}
	runner, err := core.NewShardRunner(eng, hello.Budget)
	if err != nil {
		ack.Err = err.Error()
		return nil, ack
	}
	ack.Islands = runner.Islands()
	return runner, ack
}

// dispatch handles one post-handshake request and writes its ack.
func dispatch(fc *frameConn, runner *core.ShardRunner, typ byte, body []byte) error {
	switch typ {
	case mtAdopt:
		var msg adoptMsg
		if err := decode(typ, body, &msg); err != nil {
			return err
		}
		var ack adoptAck
		for _, a := range msg.Islands {
			if err := runner.Own(a.ID, a.Seed); err != nil {
				ack.Err = err.Error()
				break
			}
		}
		return fc.writeMsg(mtAdoptAck, ack)

	case mtRound:
		var msg roundMsg
		if err := decode(typ, body, &msg); err != nil {
			return err
		}
		ack := roundAck{Seq: msg.Seq}
		// Ascending island order: the per-island step sequence is
		// independent, but deterministic ordering keeps shared-cache
		// effects and failure replay reproducible.
		ids := append([]int(nil), msg.IDs...)
		sort.Ints(ids)
		for _, id := range ids {
			rep, err := runner.Advance(id, msg.Bodies, msg.Boundary)
			if err != nil {
				ack.Err = err.Error()
				ack.Reports = nil
				break
			}
			ack.Reports = append(ack.Reports, *rep)
		}
		return fc.writeMsg(mtRoundAck, ack)

	case mtMigrants:
		var msg migrantsMsg
		if err := decode(typ, body, &msg); err != nil {
			return err
		}
		ack := roundAck{Seq: msg.Seq}
		dels := msg.Deliveries
		sort.Slice(dels, func(i, j int) bool { return dels[i].ID < dels[j].ID })
		for _, d := range dels {
			rep, err := runner.CompleteBoundary(d.ID, d.Batches)
			if err != nil {
				ack.Err = err.Error()
				ack.Reports = nil
				break
			}
			ack.Reports = append(ack.Reports, *rep)
		}
		return fc.writeMsg(mtMigrantsAck, ack)

	case mtFinalize:
		var msg finalizeMsg
		if err := decode(typ, body, &msg); err != nil {
			return err
		}
		var ack finalizeAck
		ids := append([]int(nil), msg.IDs...)
		sort.Ints(ids)
		for _, id := range ids {
			fin, err := runner.Finalize(id)
			if err != nil {
				ack.Err = err.Error()
				ack.Finals = nil
				break
			}
			ack.Finals = append(ack.Finals, *fin)
		}
		return fc.writeMsg(mtFinalizeAck, ack)

	default:
		return fmt.Errorf("dist: unexpected message type %d", typ)
	}
}

func decode(typ byte, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dist: decode %d: %w", typ, err)
	}
	return nil
}
