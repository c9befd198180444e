// Package dist is the multi-process island backend: a coordinator
// (core.Placement) that shards a run's K islands across W worker
// processes speaking a CRC-framed, length-prefixed TCP protocol of JSON
// messages. Island elites ride in them as opaque bytes in core's binary
// state encoding (core.AppendStates), which the coordinator forwards
// without decoding.
//
// Frame layout (all integers big-endian):
//
//	uint32  n        payload length (1 ≤ n ≤ 64 MiB)
//	byte    type     message type (payload[0])
//	[]byte  body     JSON document (payload[1:])
//	uint32  crc      IEEE CRC-32 of the whole payload
//
// A short read or CRC mismatch is a torn frame: the connection is
// poisoned and the peer is treated as lost. Determinism does not depend
// on any of this machinery — the protocol only moves encoded elites
// between processes, never island snapshots, and every payload's
// content is a pure function of (Seed, Islands, MigrateEvery, Profiles);
// see docs/dist-protocol.md for the full argument.
package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"digamma/internal/core"
	"digamma/internal/faults"
)

// ProtoVersion is the wire protocol version; hellos carrying any other
// version are refused at handshake time. Version 3 ships elites in the
// binary state encoding, where version 2 shipped JSON. Neither carries
// island snapshots: lost islands are rebuilt by replaying the
// coordinator's log.
const ProtoVersion = 3

// maxFrame bounds a frame payload: far above any round of elite exports
// the engine produces, small enough to refuse a corrupt length prefix
// outright. Bodies below it are still read incrementally, so a lying
// prefix costs memory only for the bytes that actually arrive.
const maxFrame = 64 << 20

// frameChunk is the initial body buffer of a frame read; larger bodies
// grow it as their bytes arrive.
const frameChunk = 64 << 10

// Message types. Every request from the coordinator is answered by
// exactly one ack from the worker.
const (
	mtHello       byte = iota + 1 // coordinator → worker: spec + config-sum handshake
	mtHelloAck                    // worker → coordinator: derived config sum
	mtAdopt                       // coordinator → worker: own islands (fresh or re-homed)
	mtAdoptAck                    //
	mtRound                       // coordinator → worker: advance islands N bodies
	mtRoundAck                    // worker → coordinator: hist, counters, exports
	mtMigrants                    // coordinator → worker: boundary elite deliveries
	mtMigrantsAck                 // worker → coordinator: post-boundary counters
	mtFinalize                    // coordinator → worker: sort + report bests
	mtFinalizeAck                 //
)

// Chaos injection points (internal/faults), hit on every frame write:
// FaultSlow sleeps its knob's Delay (slow-peer injection; the returned
// error is ignored), FaultConn drops the write as a connection failure,
// FaultTorn writes a truncated frame — the receiver sees a torn frame —
// then fails the write.
const (
	FaultSlow = "dist.slow"
	FaultConn = "dist.conn"
	FaultTorn = "dist.torn"
)

// ErrTorn reports a frame that failed its length or CRC validation.
var ErrTorn = errors.New("dist: torn frame")

// helloMsg opens a session: everything a worker needs to rebuild the
// exact engine (Spec), plus the coordinator's fingerprint and budget for
// the cross-check.
type helloMsg struct {
	Proto     int    `json:"proto"`
	Spec      Spec   `json:"spec"`
	ConfigSum string `json:"config_sum"`
	Budget    int    `json:"budget"`
}

type helloAck struct {
	Proto     int    `json:"proto"`
	ConfigSum string `json:"config_sum"`
	Islands   int    `json:"islands"`
	Err       string `json:"err,omitempty"`
}

// assignment hands one island to a worker, always fresh: the expected
// stream seed, which the worker cross-checks against its own derivation.
// A re-homed island is adopted the same way and then replayed.
type assignment struct {
	ID   int   `json:"id"`
	Seed int64 `json:"seed"`
}

type adoptMsg struct {
	Islands []assignment `json:"islands"`
}

type adoptAck struct {
	Err string `json:"err,omitempty"`
}

// roundMsg advances the listed islands through Bodies generation bodies;
// when Boundary is set the last body stops at the migration exchange and
// the ack carries the islands' elite exports.
type roundMsg struct {
	Seq      int   `json:"seq"`
	IDs      []int `json:"ids"`
	Bodies   int   `json:"bodies"`
	Boundary bool  `json:"boundary,omitempty"`
}

// roundAck answers a round or migrants request with one report per
// requested island.
type roundAck struct {
	Seq     int                `json:"seq"`
	Reports []core.ShardReport `json:"reports,omitempty"`
	Err     string             `json:"err,omitempty"`
}

// delivery routes migrant batches to one destination island; an empty
// batch list still completes the island's boundary (the second sort).
type delivery struct {
	ID      int                 `json:"id"`
	Batches []core.MigrantBatch `json:"batches,omitempty"`
}

type migrantsMsg struct {
	Seq        int        `json:"seq"`
	Deliveries []delivery `json:"deliveries"`
}

type finalizeMsg struct {
	IDs []int `json:"ids"`
}

type finalizeAck struct {
	Finals []core.ShardFinal `json:"finals,omitempty"`
	Err    string            `json:"err,omitempty"`
}

// frameConn is the shared framing layer: a connection plus the faults
// injector armed on it (nil in production).
type frameConn struct {
	rw  io.ReadWriteCloser
	inj *faults.Injector
}

// writeMsg frames and writes one message. Chaos points fire here: a
// FaultConn hit fails the write outright, a FaultTorn hit ships a
// truncated frame so the peer's CRC check trips.
func (fc *frameConn) writeMsg(typ byte, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: encode %d: %w", typ, err)
	}
	payload := make([]byte, 1+len(body))
	payload[0] = typ
	copy(payload[1:], body)
	frame := make([]byte, 4+len(payload)+4)
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	binary.BigEndian.PutUint32(frame[4+len(payload):], crc32.ChecksumIEEE(payload))

	fc.inj.Hit(FaultSlow) // sleeps the knob's Delay; outcome ignored
	if err := fc.inj.Hit(FaultConn); err != nil {
		fc.rw.Close()
		return fmt.Errorf("dist: write: %w", err)
	}
	if err := fc.inj.Hit(FaultTorn); err != nil {
		fc.rw.Write(frame[:len(frame)/2])
		fc.rw.Close()
		return fmt.Errorf("dist: write: %w", err)
	}
	if _, err := fc.rw.Write(frame); err != nil {
		return fmt.Errorf("dist: write: %w", err)
	}
	return nil
}

// readMsg reads and validates one frame, returning its type and JSON
// body. Length or CRC violations return ErrTorn-wrapped errors. The body
// is read incrementally, so allocation tracks the bytes received rather
// than the length prefix's claim.
func (fc *frameConn) readMsg() (byte, []byte, error) {
	fc.inj.Hit(FaultSlow)
	if err := fc.inj.Hit(FaultConn); err != nil {
		fc.rw.Close()
		return 0, nil, fmt.Errorf("dist: read: %w", err)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(fc.rw, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("dist: read header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("%w: payload length %d", ErrTorn, n)
	}
	var bb bytes.Buffer
	bb.Grow(min(int(n)+4, frameChunk))
	if _, err := io.CopyN(&bb, fc.rw, int64(n)+4); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTorn, err)
	}
	buf := bb.Bytes()
	payload, sum := buf[:n], binary.BigEndian.Uint32(buf[n:])
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, fmt.Errorf("%w: CRC mismatch", ErrTorn)
	}
	return payload[0], payload[1:], nil
}

// expect reads one frame and decodes it as the given type, failing on
// anything else.
func (fc *frameConn) expect(typ byte, v any) error {
	got, body, err := fc.readMsg()
	if err != nil {
		return err
	}
	if got != typ {
		return fmt.Errorf("dist: expected message %d, got %d", typ, got)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("dist: decode %d: %w", typ, err)
	}
	return nil
}

// deadlined sets a deadline on connections that support one (net.Conn);
// loopback test pipes may not.
type deadliner interface {
	SetDeadline(t time.Time) error
}

func (fc *frameConn) setDeadline(d time.Duration) {
	if dc, ok := fc.rw.(deadliner); ok {
		if d <= 0 {
			dc.SetDeadline(time.Time{})
		} else {
			dc.SetDeadline(time.Now().Add(d))
		}
	}
}
