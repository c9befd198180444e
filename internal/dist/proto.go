// Package dist is the multi-process island backend: a coordinator
// (core.Placement) that shards a run's K islands across W worker
// processes speaking a CRC-framed, length-prefixed TCP protocol. The
// once-per-search messages (hello, adopt, finalize) are JSON; the
// per-segment round and round-ack frames have a strict binary body.
// Island elites ride in both as opaque bytes in core's binary state
// encoding (core.AppendStates), which the coordinator forwards without
// decoding.
//
// Frame layout (all integers big-endian):
//
//	uint32  n        payload length (1 ≤ n ≤ 64 MiB)
//	byte    type     message type (payload[0])
//	[]byte  body     binary (round, round-ack) or JSON (payload[1:])
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
	"math"
	"strconv"
	"time"

	"digamma/internal/core"
	"digamma/internal/faults"
)

// ProtoVersion is the wire protocol version; hellos carrying any other
// version are refused at handshake time. Version 4 carries a boundary's
// migrants in the next round (or finalize) request and gives round
// frames a binary body. No version carries island snapshots: lost
// islands are rebuilt by replaying the coordinator's log.
const ProtoVersion = 4

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
	mtRound                       // coordinator → worker: deliver migrants, advance islands N bodies
	mtRoundAck                    // worker → coordinator: completions, hist, counters, exports
	mtFinalize                    // coordinator → worker: deliver migrants, sort + report bests
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

// delivery routes migrant batches to one destination island; an empty
// batch list still completes the island's boundary (the second sort).
type delivery struct {
	ID      int                 `json:"id"`
	Batches []core.MigrantBatch `json:"batches,omitempty"`
}

// roundMsg advances the listed islands through Bodies generation bodies.
// When the islands stand at a migration boundary, Deliveries carries one
// delivery per island and the worker completes the boundary before it
// advances. When Boundary is set the last body stops at the next
// migration exchange and the ack carries the islands' elite exports.
type roundMsg struct {
	Seq        int
	IDs        []int
	Bodies     int
	Boundary   bool
	Deliveries []delivery
}

// roundAck answers a round: one completion per delivery and one report
// per requested island.
type roundAck struct {
	Seq         int
	Completions []core.ShardReport
	Reports     []core.ShardReport
	Err         string
}

// finalizeMsg asks for the listed islands' final reports; when the run
// ended on a migration boundary, Deliveries completes it first.
type finalizeMsg struct {
	IDs        []int      `json:"ids"`
	Deliveries []delivery `json:"deliveries,omitempty"`
}

type finalizeAck struct {
	Completions []core.ShardReport `json:"completions,omitempty"`
	Finals      []core.ShardFinal  `json:"finals,omitempty"`
	Err         string             `json:"err,omitempty"`
}

// binaryBody is a message with a binary body: the per-segment round and
// round-ack. Every other message is JSON.
type binaryBody interface {
	appendBinary(b []byte) []byte
	decodeBinary(body []byte) error
}

// binaryType reports whether frames of type typ carry a binary body.
func binaryType(typ byte) bool { return typ == mtRound || typ == mtRoundAck }

// appendBody appends the body of a typ message to b, in the codec the
// type uses.
func appendBody(b []byte, typ byte, v any) ([]byte, error) {
	if !binaryType(typ) {
		body, err := json.Marshal(v)
		return append(b, body...), err
	}
	m, ok := v.(binaryBody)
	if !ok {
		return nil, fmt.Errorf("%T has no binary body", v)
	}
	return m.appendBinary(b), nil
}

// decodeBody decodes a typ message's body into v.
func decodeBody(typ byte, body []byte, v any) error {
	var err error
	if !binaryType(typ) {
		err = json.Unmarshal(body, v)
	} else if m, ok := v.(binaryBody); ok {
		err = m.decodeBinary(body)
	} else {
		err = fmt.Errorf("%T has no binary body", v)
	}
	if err != nil {
		return fmt.Errorf("dist: decode %d: %w", typ, err)
	}
	return nil
}

// Binary bodies, integers as varints (encoding/binary: counts unsigned,
// everything else zig-zag), flags as one byte 0 or 1, byte strings as a
// count and the bytes:
//
//	round:      seq, bodies, boundary flag, IDs (count, ids),
//	            deliveries (count, then per delivery: id,
//	            batches (count, then per batch: from, elites bytes))
//	round-ack:  seq, err bytes, completions, reports
//	            (each a count of reports, then per report: island, gen,
//	            samples, hist (count, 8-byte little-endian IEEE-754 bits
//	            each), exports bytes)
//
// Decoding is strict, as core.DecodeStates is: every count must fit in
// the bytes left, varints must be minimal, flags 0 or 1, and no bytes
// may trail, so a body has exactly one byte form. Empty lists and byte
// strings decode as nil. Decoded byte strings alias the frame.

func (m *roundMsg) appendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, int64(m.Seq))
	b = binary.AppendVarint(b, int64(m.Bodies))
	b = appendFlag(b, m.Boundary)
	b = binary.AppendUvarint(b, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		b = binary.AppendVarint(b, int64(id))
	}
	b = binary.AppendUvarint(b, uint64(len(m.Deliveries)))
	for _, d := range m.Deliveries {
		b = binary.AppendVarint(b, int64(d.ID))
		b = binary.AppendUvarint(b, uint64(len(d.Batches)))
		for _, batch := range d.Batches {
			b = binary.AppendVarint(b, int64(batch.From))
			b = appendBlob(b, batch.Elites)
		}
	}
	return b
}

func (m *roundMsg) decodeBinary(body []byte) error {
	r := wireReader{b: body}
	m.Seq, m.Bodies, m.Boundary = r.int(), r.int(), r.flag()
	m.IDs = makeN[int](r.count(1))
	for i := range m.IDs {
		m.IDs[i] = r.int()
	}
	m.Deliveries = makeN[delivery](r.count(2))
	for i := range m.Deliveries {
		d := &m.Deliveries[i]
		d.ID = r.int()
		d.Batches = makeN[core.MigrantBatch](r.count(2))
		for j := range d.Batches {
			d.Batches[j] = core.MigrantBatch{From: r.int(), Elites: r.blob()}
		}
	}
	return r.done()
}

func (m *roundAck) appendBinary(b []byte) []byte {
	b = binary.AppendVarint(b, int64(m.Seq))
	b = appendBlob(b, []byte(m.Err))
	b = appendReports(b, m.Completions)
	return appendReports(b, m.Reports)
}

func (m *roundAck) decodeBinary(body []byte) error {
	r := wireReader{b: body}
	m.Seq = r.int()
	m.Err = string(r.blob())
	m.Completions = r.reports()
	m.Reports = r.reports()
	return r.done()
}

// reportMinBytes is the smallest encoded report: island, gen, samples,
// an empty hist and no exports.
const reportMinBytes = 5

func appendReports(b []byte, reps []core.ShardReport) []byte {
	b = binary.AppendUvarint(b, uint64(len(reps)))
	for i := range reps {
		rep := &reps[i]
		b = binary.AppendVarint(b, int64(rep.Island))
		b = binary.AppendVarint(b, int64(rep.Gen))
		b = binary.AppendVarint(b, int64(rep.Samples))
		b = binary.AppendUvarint(b, uint64(len(rep.Hist)))
		for _, h := range rep.Hist {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h))
		}
		b = appendBlob(b, rep.Exports)
	}
	return b
}

func (r *wireReader) reports() []core.ShardReport {
	reps := makeN[core.ShardReport](r.count(reportMinBytes))
	for i := range reps {
		rep := &reps[i]
		rep.Island, rep.Gen, rep.Samples = r.int(), r.int(), r.int()
		rep.Hist = makeN[float64](r.count(8))
		for j := range rep.Hist {
			if h := r.bytes(8); h != nil {
				rep.Hist[j] = math.Float64frombits(binary.LittleEndian.Uint64(h))
			}
		}
		rep.Exports = r.blob()
	}
	return reps
}

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBlob(b, blob []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(blob))), blob...)
}

// makeN returns a slice of n zero values, nil when n is 0.
func makeN[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// wireReader consumes a binary body front to back. The first failure
// sticks: every later read returns zero values and count returns 0, so
// nothing is sized from a value read after it.
type wireReader struct {
	b   []byte // the bytes not yet consumed
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.fail("malformed varint")
		return 0
	case n > 1 && r.b[n-1] == 0: // only a one-byte varint may end in a zero byte
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a zig-zag varint, the encoding binary.AppendVarint writes.
func (r *wireReader) int() int {
	u := r.uvarint()
	v := int64(u>>1) ^ -int64(u&1)
	if strconv.IntSize < 64 && int64(int(v)) != v {
		r.fail("integer out of range")
		return 0
	}
	return int(v)
}

// count reads a length whose items each take at least size bytes, so it
// can never exceed what the remaining input could hold.
func (r *wireReader) count(size int) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.b))
	}
	if r.err != nil {
		return 0
	}
	return int(v)
}

func (r *wireReader) bytes(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.fail("truncated")
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// blob reads a counted byte string, nil when empty. Its capacity ends
// with it, so an append cannot spill into the rest of the frame.
func (r *wireReader) blob() []byte {
	if n := r.count(1); n > 0 {
		return r.bytes(n)
	}
	return nil
}

func (r *wireReader) flag() bool {
	f := r.bytes(1)
	if f != nil && f[0] > 1 {
		r.fail("flag byte %d", f[0])
	}
	return f != nil && f[0] == 1
}

// done reports the first failure, or trailing bytes after a clean read.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// frameConn is the shared framing layer: a connection plus the faults
// injector armed on it (nil in production).
type frameConn struct {
	rw  io.ReadWriteCloser
	inj *faults.Injector
	out []byte // the last frame written, reused for the next
}

// writeMsg frames and writes one message. Chaos points fire here: a
// FaultConn hit fails the write outright, a FaultTorn hit ships a
// truncated frame so the peer's CRC check trips.
func (fc *frameConn) writeMsg(typ byte, v any) error {
	frame, err := appendBody(append(fc.out[:0], 0, 0, 0, 0, typ), typ, v)
	if err != nil {
		return fmt.Errorf("dist: encode %d: %w", typ, err)
	}
	payload := frame[4:]
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	frame = binary.BigEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	fc.out = frame

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

// readMsg reads and validates one frame, returning its type and body.
// Length or CRC violations return ErrTorn-wrapped errors. The body is
// read incrementally, so allocation tracks the bytes received rather
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
	return decodeBody(typ, body, v)
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
