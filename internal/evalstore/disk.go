package evalstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"digamma/internal/faults"
)

// On-disk layout (documented in docs/evalstore-format.md):
//
//	<dir>/seg-%06d.seg   append-only segments: analyses and warm-start results
//
// Each segment starts with an 8-byte magic, then CRC-framed records:
//
//	[crc32-IEEE(payload) u32le][len(payload) u32le][payload]
//
// exactly the WAL's framing discipline. The first record is a header
// ('H' + fingerprint); every later record is an entry ('E' + 16-byte key
// + score codec bytes) or a warm-start result ('R' + JSON ResultRecord).
// Replay stops at the first bad frame and truncates the file back to the
// valid prefix — a torn tail from a crash mid-append costs its own
// records, nothing before them. A segment whose header carries a
// different cost-model fingerprint is deleted whole: the model changed,
// so every entry and result in it is stale by definition.
//
// Each segment is one generation of the store (see Store.grow): it opens
// with the live warm-start index re-appended as 'R' records, and it is
// deleted whole when its generation is dropped under the byte budget.

const (
	// segMagic versions the segment format AND the key scheme: entries are
	// stored under raw Keys, so a key-derivation change must bump the
	// magic — old segments then read as foreign files and are deleted at
	// open instead of loading entries that could never hit again.
	// "5" = 'E' entries hold a cost.Score, not a whole cost.Result ("4":
	// ProbeKey's packed word layout, the key both cache tiers use; "3":
	// 'R' result records in the segments; "2": Murmur3-probe keys, results
	// in a separate results.json; "1": SHA-256 probe keys). A "2" reader
	// would truncate a "3" segment at its first 'R' frame.
	segMagic       = "DGEVSTR5"
	recHeader      = 'H'
	recEntry       = 'E'
	recResult      = 'R'
	defaultSegMax  = 8 << 20
	segPattern     = "seg-*.seg"
	maxPayload     = 1 << 20 // frames larger than this are corruption
	flushEveryRecs = 256     // bound the unflushed tail a crash can lose
)

// Fault-injection points (see internal/faults): armed by the chaos
// suite, inert in production.
const (
	PointAppend = "evalstore.append"
	PointRotate = "evalstore.rotate"
	PointIndex  = "evalstore.index"
)

type diskTier struct {
	dir    string
	fp     string
	faults *faults.Injector
	log    *slog.Logger

	f       *os.File
	w       *bufio.Writer
	pending int    // records since last flush
	payload []byte // scratch for the result record being framed
	frame   []byte // scratch for the frame being written
}

// openDisk attaches the persistent tier. It keeps the newest segments
// whose bytes fit the budget and deletes the older ones undecoded,
// replays the kept ones oldest first into s (each read into its
// generation's arena, its entries indexed there, and the result index),
// prunes stale or unreadable ones, and resumes appending to the newest
// segment, or stages a fresh one when it is full.
func (s *Store) openDisk(o Options) error {
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	d := &diskTier{dir: o.Dir, fp: o.Fingerprint, faults: o.Faults, log: o.Log}

	names, err := filepath.Glob(filepath.Join(o.Dir, segPattern))
	if err != nil {
		return fmt.Errorf("evalstore: %w", err)
	}
	sort.Strings(names)
	keep := d.retainFrom(names, s.maxBytes)
	for _, path := range names[:keep] {
		n := countEntries(path)
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("evalstore: removing segment past the budget: %w", err)
		}
		s.evicted += uint64(n)
		d.log.Info("evalstore: dropped segment past the budget", "segment", filepath.Base(path), "entries", n)
	}
	var lastPath string
	for i, path := range names[keep:] {
		seq := segSeq(path)
		// The newest segment may be resumed: room to fill its generation.
		headroom := 0
		if keep+i == len(names)-1 {
			headroom = int(s.genBytes) + maxEntryFrame
		}
		a, n, err := d.replaySegment(path, seq, headroom, s)
		if err != nil {
			// Unusable segment (bad magic, wrong fingerprint, unreadable
			// header): delete it so it cannot shadow fresh entries.
			d.log.Warn("evalstore: discarding segment", "segment", filepath.Base(path), "reason", err)
			if rmErr := os.Remove(path); rmErr != nil {
				return fmt.Errorf("evalstore: removing stale segment: %w", rmErr)
			}
			continue
		}
		s.loaded += n
		lastPath = path
		size := int64(a.n) - d.headerLen()
		s.gens = append(s.gens, generation{seq: seq, bytes: size, a: a})
		s.bytes += size
	}

	// Stores written before results moved into the segments kept them in
	// results.json; those records are not migrated (their segments were
	// discarded above for the old magic).
	if err := os.Remove(filepath.Join(o.Dir, "results.json")); err == nil {
		d.log.Warn("evalstore: removed results.json left by an older format; warm-start records start empty")
	}

	// Resume appending to the newest segment while it has headroom;
	// otherwise stage a fresh one.
	next := uint32(1)
	if len(s.gens) > 0 {
		last := s.gens[len(s.gens)-1]
		if last.bytes < s.genBytes {
			f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("evalstore: %w", err)
			}
			d.f, d.w = f, bufio.NewWriter(f)
			s.disk = d
			return nil
		}
		next = last.seq + 1
	}
	s.disk = d
	if err := s.advance(next); err != nil {
		d.close()
		return err
	}
	return nil
}

// retainFrom returns the index of the oldest segment Open keeps: the
// newest ones whose bytes after the header sum to at most maxBytes, by
// file size alone. The newest segment is always kept.
func (d *diskTier) retainFrom(names []string, maxBytes int64) int {
	var total int64
	for i := len(names) - 1; i >= 0; i-- {
		if fi, err := os.Stat(names[i]); err == nil {
			total += max(fi.Size()-d.headerLen(), 0)
		}
		if total > maxBytes && i < len(names)-1 {
			return i + 1
		}
	}
	return 0
}

// countEntries counts the 'E' frames of a segment cut at open from their
// frame headers and type bytes, without checksumming or decoding any
// payload.
func countEntries(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	if _, err := r.Discard(len(segMagic)); err != nil {
		return 0
	}
	var hdr [9]byte // crc, length, record type
	n := 0
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return n
		}
		size := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 || size > maxPayload {
			return n
		}
		if hdr[8] == recEntry {
			n++
		}
		if _, err := r.Discard(int(size) - 1); err != nil {
			return n
		}
	}
}

// segSeq parses the sequence number out of seg-%06d.seg (0 if malformed).
func segSeq(path string) uint32 {
	var n uint32
	fmt.Sscanf(filepath.Base(path), "seg-%06d.seg", &n)
	return n
}

func (d *diskTier) path(seq uint32) string {
	return filepath.Join(d.dir, fmt.Sprintf("seg-%06d.seg", seq))
}

// headerLen is the size of a segment's magic and header frame under this
// fingerprint: what a segment holds beyond its generation's bytes.
func (d *diskTier) headerLen() int64 {
	return int64(len(segMagic) + 8 + 1 + 8 + len(d.fp))
}

// rotate closes the active segment, if any, stages segment seq and
// re-appends recs (the live warm-start index, as JSON) into it, flushed
// to the OS before any older segment can be dropped. Returns the bytes
// appended after the header. Callers hold Store.logMu.
func (d *diskTier) rotate(seq uint32, recs [][]byte) (int64, error) {
	if d.f != nil {
		if err := d.flush(); err != nil {
			return 0, err
		}
		if err := d.f.Sync(); err != nil {
			return 0, err
		}
		if err := d.f.Close(); err != nil {
			return 0, err
		}
		d.f, d.w = nil, nil
	}
	if err := d.newSegment(seq); err != nil {
		return 0, err
	}
	var n int64
	for _, rec := range recs {
		m, err := d.writeRecord(rec)
		if err != nil {
			return 0, err
		}
		n += m
	}
	return n, d.flush()
}

// newSegment stages segment seq atomically: magic + header record are
// written and fsynced under a temp name before the rename makes the
// segment live, so a crash mid-create can never leave a half-written
// header in the scan path. The fd survives the rename (same inode).
func (d *diskTier) newSegment(seq uint32) error {
	if err := d.faults.Hit(PointRotate); err != nil {
		return err
	}
	final := d.path(seq)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr []byte
	hdr = append(hdr, segMagic...)
	hdr = appendFrame(hdr, appendString([]byte{recHeader}, d.fp))
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	d.f, d.w, d.pending = f, bufio.NewWriter(f), 0
	return nil
}

// remove deletes the segment of a dropped generation. Callers hold
// Store.logMu.
func (d *diskTier) remove(seq uint32) error {
	return os.Remove(d.path(seq))
}

// append writes one entry's frame, as the store's arena holds it, onto
// the active segment. Callers hold Store.logMu.
func (d *diskTier) append(frame []byte) error {
	if err := d.faults.Hit(PointAppend); err != nil {
		return err
	}
	return d.write(frame)
}

// appendRecord frames one warm-start result (its JSON) onto the active
// segment and flushes it to the OS, so a record survives the process once
// RecordResult returns. Returns the bytes appended. Callers hold
// Store.logMu.
func (d *diskTier) appendRecord(raw []byte) (int64, error) {
	if err := d.faults.Hit(PointIndex); err != nil {
		return 0, err
	}
	n, err := d.writeRecord(raw)
	if err != nil {
		return 0, err
	}
	return n, d.flush()
}

// writeRecord frames one warm-start result: 'R' + the record as JSON.
func (d *diskTier) writeRecord(raw []byte) (int64, error) {
	d.payload = append(append(d.payload[:0], recResult), raw...)
	return d.writeFrame(d.payload)
}

// writeFrame appends one framed payload to the active segment and
// returns the frame's size.
func (d *diskTier) writeFrame(payload []byte) (int64, error) {
	d.frame = appendFrame(d.frame[:0], payload)
	return int64(len(d.frame)), d.write(d.frame)
}

// write appends one whole frame to the active segment, flushing every
// flushEveryRecs records.
func (d *diskTier) write(frame []byte) error {
	if _, err := d.w.Write(frame); err != nil {
		return err
	}
	if d.pending++; d.pending >= flushEveryRecs {
		return d.flush()
	}
	return nil
}

func (d *diskTier) flush() error {
	d.pending = 0
	if d.w == nil {
		return nil
	}
	return d.w.Flush()
}

func (d *diskTier) close() error {
	if d.f == nil {
		return nil
	}
	err := d.flush()
	if cerr := d.f.Close(); err == nil {
		err = cerr
	}
	d.f, d.w = nil, nil
	return err
}

// appendFrame wraps payload in the CRC frame.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	return append(b, payload...)
}

// errSegment marks whole-segment rejection (vs a recoverable torn tail).
var errSegment = errors.New("evalstore: bad segment")

// replaySegment reads one segment into a fresh arena for generation seq,
// with headroom bytes to spare, indexes its entries into s there without
// decoding them — an 'E' frame needs only the length its level count
// allows (see levelCount) — and folds its result records into the index
// in file order (the order they were added live), truncating any torn
// tail back to the valid prefix, which is what the arena then holds.
// Returns the arena and the entry count; an error rejects the whole
// segment: its entries are unindexed again and its arena freed.
func (d *diskTier) replaySegment(path string, seq uint32, headroom int, s *Store) (_ *arena, n int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errSegment, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errSegment, err)
	}
	if fi.Size() < int64(len(segMagic)) {
		return nil, 0, fmt.Errorf("%w: missing magic", errSegment)
	}
	if fi.Size() > maxArenaBytes-int64(headroom) {
		return nil, 0, fmt.Errorf("%w: %d bytes, past the arena limit", errSegment, fi.Size())
	}
	size := int(fi.Size())
	a := s.arenas.alloc(seq, size+headroom)
	defer func() {
		if err != nil {
			s.unindex(a)
			s.arenas.free(a)
		}
	}()
	data := a.buf[:size]
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", errSegment, err)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, 0, fmt.Errorf("%w: missing magic", errSegment)
	}
	off := len(segMagic)
	valid := off
	sawHeader := false
	for off < len(data) {
		payload, next, ok := readFrame(data, off)
		if !ok {
			break // torn tail
		}
		if !sawHeader {
			if len(payload) < 1 || payload[0] != recHeader {
				return nil, 0, fmt.Errorf("%w: first record is not a header", errSegment)
			}
			if len(payload) < 9 || binary.LittleEndian.Uint64(payload[1:]) != uint64(len(payload)-9) {
				return nil, 0, fmt.Errorf("%w: malformed header", errSegment)
			}
			if fp := string(payload[9:]); fp != d.fp {
				return nil, 0, fmt.Errorf("%w: cost-model fingerprint %q (want %q)", errSegment, fp, d.fp)
			}
			sawHeader = true
			off, valid = next, next
			continue
		}
		switch {
		case len(payload) >= 17 && payload[0] == recEntry:
			if _, ok := levelCount(payload[17:]); ok {
				s.load(Key{
					Hi: binary.LittleEndian.Uint64(payload[1:9]),
					Lo: binary.LittleEndian.Uint64(payload[9:17]),
				}, a, off)
				n++
				off, valid = next, next
				continue
			}
		case len(payload) >= 1 && payload[0] == recResult:
			if s.results.holds(payload[1:]) {
				off, valid = next, next
				continue
			}
			if rec, err := decodeRecord(payload[1:]); err == nil {
				s.results.addRaw(rec, bytes.Clone(payload[1:]))
				off, valid = next, next
				continue
			}
		}
		break // torn tail: the CRC passed but the record is malformed
	}
	if !sawHeader {
		return nil, 0, fmt.Errorf("%w: no valid header record", errSegment)
	}
	a.n, a.from = valid, len(segMagic)
	if valid < len(data) {
		d.log.Warn("evalstore: truncating torn segment tail",
			"segment", filepath.Base(path), "valid", valid, "size", len(data))
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, 0, fmt.Errorf("%w: truncating torn tail: %w", errSegment, err)
		}
	}
	return a, n, nil
}

// readFrame decodes one CRC frame at off; ok=false on any damage (short
// frame, implausible length, CRC mismatch).
func readFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+8 > len(data) {
		return nil, 0, false
	}
	crc := binary.LittleEndian.Uint32(data[off:])
	n := binary.LittleEndian.Uint32(data[off+4:])
	if n > maxPayload || off+8+int(n) > len(data) {
		return nil, 0, false
	}
	payload = data[off+8 : off+8+int(n)]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, off + 8 + int(n), true
}
