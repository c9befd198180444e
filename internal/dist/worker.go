package dist

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime"
	"slices"

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
		if err := decodeBody(typ, body, &msg); err != nil {
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
		if err := decodeBody(typ, body, &msg); err != nil {
			return err
		}
		ack := roundAck{Seq: msg.Seq}
		var err error
		if ack.Completions, err = deliver(runner, msg.IDs, msg.Deliveries); err == nil {
			ack.Reports, err = eachIsland(msg.IDs, func(id int) (*core.ShardReport, error) {
				return runner.Advance(id, msg.Bodies, msg.Boundary)
			})
		}
		if err != nil {
			ack = roundAck{Seq: msg.Seq, Err: err.Error()}
		}
		return fc.writeMsg(mtRoundAck, &ack)

	case mtFinalize:
		var msg finalizeMsg
		if err := decodeBody(typ, body, &msg); err != nil {
			return err
		}
		var ack finalizeAck
		var err error
		if ack.Completions, err = deliver(runner, msg.IDs, msg.Deliveries); err == nil {
			ack.Finals, err = eachIsland(msg.IDs, runner.Finalize)
		}
		if err != nil {
			ack = finalizeAck{Err: err.Error()}
		}
		return fc.writeMsg(mtFinalizeAck, ack)

	default:
		return fmt.Errorf("dist: unexpected message type %d", typ)
	}
}

// deliver completes the pending migration boundary of every island a
// delivery names, each one of the request's ids, in ascending island
// order. An island left mid-boundary without a delivery fails the step
// that follows.
func deliver(runner *core.ShardRunner, ids []int, dels []delivery) ([]core.ShardReport, error) {
	for _, d := range dels {
		if !slices.Contains(ids, d.ID) {
			return nil, fmt.Errorf("dist: delivery for island %d, which the request does not list", d.ID)
		}
	}
	slices.SortFunc(dels, func(a, b delivery) int { return cmp.Compare(a.ID, b.ID) })
	out := make([]core.ShardReport, 0, len(dels))
	for _, d := range dels {
		rep, err := runner.CompleteBoundary(d.ID, d.Batches)
		if err != nil {
			return nil, err
		}
		out = append(out, *rep)
	}
	return out, nil
}

// eachIsland runs step on the ids in ascending island order and collects
// its results. The per-island step sequence is independent, but
// deterministic ordering keeps shared-cache effects and failure replay
// reproducible.
func eachIsland[T any](ids []int, step func(id int) (*T, error)) ([]T, error) {
	out := make([]T, 0, len(ids))
	for _, id := range slices.Sorted(slices.Values(ids)) {
		v, err := step(id)
		if err != nil {
			return nil, err
		}
		out = append(out, *v)
	}
	return out, nil
}
