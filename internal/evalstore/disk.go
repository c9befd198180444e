package evalstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sort"

	"digamma/internal/cost"
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
// + result codec bytes) or a warm-start result ('R' + JSON ResultRecord).
// Replay stops at the first bad frame and truncates the file back to the
// valid prefix — a torn tail from a crash mid-append costs its own
// records, nothing before them. A segment whose header carries a
// different cost-model fingerprint is deleted whole: the model changed,
// so every entry and result in it is stale by definition.

const (
	// segMagic versions the segment format AND the key scheme: entries are
	// stored under raw Keys, so a key-derivation change must bump the
	// magic — old segments then read as foreign files and are deleted at
	// open instead of loading entries that could never hit again.
	// "3" = 'R' result records in the segments ("2": Murmur3-probe keys,
	// results in a separate results.json; "1": SHA-256 probe keys). A
	// "2" reader would truncate a "3" segment at its first 'R' frame.
	segMagic       = "DGEVSTR3"
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
	max    int64
	faults *faults.Injector
	log    *slog.Logger

	f       *os.File
	w       *bufio.Writer
	size    int64
	seq     int
	pending int    // records since last flush
	frame   []byte // scratch for the frame being written

	loaded   int // entries recovered at open
	segments int // live segment files
}

// openDisk attaches the persistent tier: replays every valid segment into
// s (entries and the result index), prunes stale or unreadable ones, and
// opens the newest segment (or a fresh one) for appending.
func openDisk(o Options, s *Store) (*diskTier, error) {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = defaultSegMax
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	d := &diskTier{dir: o.Dir, fp: o.Fingerprint, max: o.MaxSegmentBytes, faults: o.Faults, log: o.Log}

	names, err := filepath.Glob(filepath.Join(o.Dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	sort.Strings(names)
	lastSeq := 0
	var lastPath string
	var lastSize int64
	for _, path := range names {
		n, size, err := d.replaySegment(path, s)
		if err != nil {
			// Unusable segment (bad magic, wrong fingerprint, unreadable
			// header): delete it so it cannot shadow fresh entries.
			d.log.Warn("evalstore: discarding segment", "segment", filepath.Base(path), "reason", err)
			if rmErr := os.Remove(path); rmErr != nil {
				return nil, fmt.Errorf("evalstore: removing stale segment: %w", rmErr)
			}
			continue
		}
		d.loaded += n
		d.segments++
		if seq := segSeq(path); seq > lastSeq {
			lastSeq, lastPath, lastSize = seq, path, size
		}
	}

	// Stores written before results moved into the segments kept them in
	// results.json; those records are not migrated (their segments were
	// discarded above for the old magic).
	if err := os.Remove(filepath.Join(o.Dir, "results.json")); err == nil {
		d.log.Warn("evalstore: removed results.json left by an older format; warm-start records start empty")
	}

	// Resume appending to the newest segment while it has headroom;
	// otherwise stage a fresh one.
	if lastPath != "" && lastSize < d.max {
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("evalstore: %w", err)
		}
		d.f, d.w, d.size, d.seq = f, bufio.NewWriter(f), lastSize, lastSeq
		return d, nil
	}
	if err := d.newSegment(lastSeq + 1); err != nil {
		return nil, err
	}
	return d, nil
}

// segSeq parses the sequence number out of seg-%06d.seg (0 if malformed).
func segSeq(path string) int {
	var n int
	fmt.Sscanf(filepath.Base(path), "seg-%06d.seg", &n)
	return n
}

// newSegment stages segment seq atomically: magic + header record are
// written and fsynced under a temp name before the rename makes the
// segment live, so a crash mid-create can never leave a half-written
// header in the scan path. The fd survives the rename (same inode).
func (d *diskTier) newSegment(seq int) error {
	if err := d.faults.Hit(PointRotate); err != nil {
		return err
	}
	final := filepath.Join(d.dir, fmt.Sprintf("seg-%06d.seg", seq))
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
	d.f, d.w, d.size, d.seq, d.pending = f, bufio.NewWriter(f), int64(len(hdr)), seq, 0
	d.segments++
	return nil
}

// append frames one entry onto the active segment. Callers hold
// Store.diskMu.
func (d *diskTier) append(k Key, r *cost.Result) error {
	if err := d.faults.Hit(PointAppend); err != nil {
		return err
	}
	payload := make([]byte, 0, 256)
	payload = append(payload, recEntry)
	payload = appendUint(payload, k.Hi)
	payload = appendUint(payload, k.Lo)
	payload = appendResult(payload, r)
	return d.writeFrame(payload)
}

// appendRecord frames one warm-start result onto the active segment and
// flushes it to the OS, so a record survives the process once
// RecordResult returns. Callers hold Store.diskMu.
func (d *diskTier) appendRecord(rec ResultRecord) error {
	if err := d.faults.Hit(PointIndex); err != nil {
		return err
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := d.writeFrame(append([]byte{recResult}, payload...)); err != nil {
		return err
	}
	return d.flush()
}

// writeFrame appends one framed payload to the active segment, rotating
// first when it is full.
func (d *diskTier) writeFrame(payload []byte) error {
	if d.size >= d.max {
		if err := d.flush(); err != nil {
			return err
		}
		if err := d.f.Sync(); err != nil {
			return err
		}
		if err := d.f.Close(); err != nil {
			return err
		}
		if err := d.newSegment(d.seq + 1); err != nil {
			return err
		}
	}
	d.frame = appendFrame(d.frame[:0], payload)
	if _, err := d.w.Write(d.frame); err != nil {
		return err
	}
	d.size += int64(len(d.frame))
	d.pending++
	if d.pending >= flushEveryRecs {
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

// replaySegment loads one segment's entries into s and folds its result
// records into the index in file order (the order they were added live),
// truncating any torn tail back to the valid prefix. Returns the entry
// count and the file's (post-truncation) size; an error rejects the whole
// segment.
func (d *diskTier) replaySegment(path string, s *Store) (n int, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: %w", errSegment, err)
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, fmt.Errorf("%w: missing magic", errSegment)
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
				return 0, 0, fmt.Errorf("%w: first record is not a header", errSegment)
			}
			c := resultCodec{b: payload[1:]}
			fpLen := c.uint()
			if c.err != nil || int(fpLen) != len(payload[1:])-8 {
				return 0, 0, fmt.Errorf("%w: malformed header", errSegment)
			}
			if fp := string(payload[9 : 9+fpLen]); fp != d.fp {
				return 0, 0, fmt.Errorf("%w: cost-model fingerprint %q (want %q)", errSegment, fp, d.fp)
			}
			sawHeader = true
			off, valid = next, next
			continue
		}
		switch {
		case len(payload) >= 17 && payload[0] == recEntry:
			if r, err := decodeResult(payload[17:]); err == nil {
				s.load(Key{
					Hi: binary.LittleEndian.Uint64(payload[1:9]),
					Lo: binary.LittleEndian.Uint64(payload[9:17]),
				}, r)
				n++
				off, valid = next, next
				continue
			}
		case len(payload) >= 1 && payload[0] == recResult:
			if rec, err := decodeRecord(payload[1:]); err == nil {
				s.results.add(rec)
				off, valid = next, next
				continue
			}
		}
		break // torn tail: the CRC passed but the record does not decode
	}
	if !sawHeader {
		return 0, 0, fmt.Errorf("%w: no valid header record", errSegment)
	}
	if valid < len(data) {
		d.log.Warn("evalstore: truncating torn segment tail",
			"segment", filepath.Base(path), "valid", valid, "size", len(data))
		if err := os.Truncate(path, int64(valid)); err != nil {
			return 0, 0, fmt.Errorf("%w: truncating torn tail: %w", errSegment, err)
		}
	}
	return n, int64(valid), nil
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
