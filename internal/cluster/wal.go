package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"webevolve/internal/frontier"
)

// Frontier persistence for the shard server: an append-only write-ahead
// log of the mutating wire ops, compacted into full-state snapshots.
//
// The WAL reuses the wire protocol's frame discipline (length prefix,
// CRC, version — proto.go), the sweep rule of the segment log under the
// disk store and frontier (internal/seglog: a short read or a frame that
// fails its length or CRC is truncated back to the last valid one; a
// read error, or an intact frame of another protocol version, fails the
// open with every file left as it was), and the server's single mutating
// apply path: a log record is exactly the (op, body) the client sent,
// request ID included. Replaying a log therefore reconstructs not just
// the frontier but the response-dedup cache, so a client retry that
// spans a server crash still gets exactly-once semantics.
//
// Layout of a -wal directory:
//
//	frontier.snap          a chunked snapshot (header, entry chunks,
//	                       dedup chunks, end marker): every queued entry
//	                       plus the dedup cache, stamped with the
//	                       sequence number of the first log file it does
//	                       NOT cover
//	frontier-<seq>.wal     op frames appended since snapshot <seq>
//
// Compaction (periodic, on graceful shutdown, and after every replay)
// rotates to a fresh log file, writes a snapshot covering everything
// before it (tmp + rename, so a crash never leaves a partial
// snapshot), and deletes the covered log files. Appends are written as
// one write(2) each with no userspace buffering, so a SIGKILL loses at
// most the in-flight frame — which was never acknowledged, so the
// client retries it against the restarted server.
const (
	// Snapshot record kinds. A snapshot is a sequence of frames —
	// header, entry chunks, dedup chunks, end marker — so its size is
	// unbounded by maxFrame no matter how large the frontier grows.
	walSnapHeader  = byte(0xF0)
	walSnapEntries = byte(0xF1)
	walSnapDedup   = byte(0xF2)
	walSnapEnd     = byte(0xF3)
	// Retired log record kinds: the politeness gap and the claim reset
	// that builds before opShardHello logged at every hello. A shard
	// server keeps no session state now, so replay refuses a log holding
	// either by name, as it does a retired op (replayWALLocked).
	retiredWALSetPoliteness = byte(0xF8)
	retiredWALClearClaims   = byte(0xF9)

	walSnapName  = "frontier.snap"
	walFilePat   = "frontier-%08d.wal"
	walFilePerm  = 0o644
	walSnapPerm  = 0o644
	walDirPerm   = 0o755
	walMaxDedup  = respCacheSize
	walSnapChunk = 4096 // entries (or dedup records) per snapshot frame
)

// wal is the shard server's open write-ahead log.
type wal struct {
	dir    string
	seq    uint64 // sequence of the active log file
	f      *os.File
	broken error // a failed append poisons the log: better to refuse ops than to ack writes a replay would lose
}

func walFilePath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf(walFilePat, seq))
}

// walFileSeqs lists the log-file sequence numbers present in dir,
// ascending.
func walFileSeqs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), walFilePat, &seq); n == 1 {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// append logs one mutating op. Caller holds walMu. The frame is written
// with a single write call after the apply and before the client's
// acknowledgement is sent, so an acknowledged op is always replayable.
func (w *wal) append(op byte, body []byte) error {
	if w.broken != nil {
		return fmt.Errorf("wal poisoned by earlier failure: %w", w.broken)
	}
	n, err := writeFrame(w.f, op, body)
	if err != nil {
		w.broken = err
		return err
	}
	walAppends.Inc()
	walAppendBytes.Add(int64(n))
	return nil
}

// OpenWAL enables frontier persistence from dir, creating it if needed:
// the latest snapshot is restored, the logs it does not cover are
// replayed through the regular apply path (stopping at — and truncating
// away — a torn final frame), and the recovered state is immediately
// compacted into a fresh snapshot. A snapshot or log holding an intact
// frame of another protocol version fails the open (errProtoVersion),
// as does a log frame whose op this build does not replay or a snapshot
// of an older build holding a politeness gap, and the directory is left
// as it was. Must be called before the server starts
// serving.
func (s *ShardServer) OpenWAL(dir string) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal != nil {
		return errors.New("cluster: WAL already open")
	}
	if err := os.MkdirAll(dir, walDirPerm); err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	snapSeq, err := s.loadSnapshotLocked(filepath.Join(dir, walSnapName))
	if err != nil {
		return err
	}
	seqs, err := walFileSeqs(dir)
	if err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	active := snapSeq
	for _, seq := range seqs {
		if seq < snapSeq {
			// Covered by the snapshot; a crash mid-compaction left it, and
			// the compaction below deletes it.
			continue
		}
		path := walFilePath(dir, seq)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("cluster: wal: %w", err)
		}
		err = s.replayWALLocked(path, bufio.NewReader(f))
		f.Close()
		if err != nil {
			return err
		}
		active = seq
	}
	f, err := os.OpenFile(walFilePath(dir, active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, walFilePerm)
	if err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	s.wal = &wal{dir: dir, seq: active, f: f}
	// Fold the recovered state into a fresh snapshot right away: it
	// collapses multi-file leftovers and bounds the next replay.
	if err := s.compactWALLocked(); err != nil {
		s.wal.f.Close()
		s.wal = nil
		return err
	}
	return nil
}

// replayWALLocked feeds the frames of the log file at path, read from
// r, through the mutating apply path. A torn frame (a short read) or a
// corrupt one (errBadFrame: a bad length or CRC) ends the replay, and
// the file is truncated back to the last valid frame. Anything else
// fails the replay and leaves the file as it was: an intact frame of
// another protocol version is another build's acknowledged work, after
// a read error the bytes may be fine, and an intact frame whose op this
// build does not apply (a retired op an older build logged, or a byte
// no op was ever given) holds acknowledged work that skipping would
// lose.
func (s *ShardServer) replayWALLocked(path string, r io.Reader) error {
	var good int64
	for {
		op, body, wire, err := readFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if !errors.Is(err, errBadFrame) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				return fmt.Errorf("cluster: wal: %s: frame at offset %d: %w", path, good, err)
			}
			if terr := os.Truncate(path, good); terr != nil {
				return fmt.Errorf("cluster: wal: truncating %s: %w", path, terr)
			}
			return nil
		}
		if !mutatingOp(op) {
			return fmt.Errorf("cluster: wal: %s: frame at offset %d: op %s is not replayable", path, good, opName(op))
		}
		d := newDec(body)
		reqID := d.fix64()
		if d.finish() == nil {
			if _, _, ok := s.dedup.get(reqID); !ok {
				status, resp, _ := s.applyMutating(op, d)
				s.remember(reqID, op, status, resp)
			}
		}
		walReplayedFrames.Inc()
		good += int64(wire)
	}
}

// loadSnapshotLocked restores the snapshot file if present, returning
// the sequence number of the first log file it does not cover (0 when
// absent). A snapshot missing its end marker is corrupt: the writer
// only ever publishes complete files (tmp + rename).
func (s *ShardServer) loadSnapshotLocked(path string) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("cluster: wal: %w", err)
	}
	defer f.Close()
	corrupt := func(err error) (uint64, error) {
		if errors.Is(err, errProtoVersion) {
			return 0, fmt.Errorf("cluster: wal: snapshot %s: %w", path, err)
		}
		if err != nil {
			return 0, fmt.Errorf("cluster: wal: corrupt snapshot %s: %w", path, err)
		}
		return 0, fmt.Errorf("cluster: wal: corrupt snapshot %s", path)
	}
	r := bufio.NewReader(f)
	kind, body, _, err := readFrame(r)
	if err != nil {
		return corrupt(err)
	}
	if kind != walSnapHeader {
		return 0, fmt.Errorf("cluster: wal: %s is not a snapshot (kind %d)", path, kind)
	}
	d := newDec(body)
	seq := d.u64()
	var gap float64
	if d.finish() == nil && d.off < len(d.b) {
		// A header of a build before opShardHello: the politeness gap,
		// then each shard's deadline (f64) and claim (bool). The shard
		// states are dropped — no round reads a deadline, and that
		// build's next session cleared claims anyway — and a gap is
		// refused below: a queue holding one refused every round.
		gap = d.f64()
		for n := d.u32(); n > 0 && d.finish() == nil; n-- {
			d.f64()
			d.bool()
		}
	}
	if err := d.finish(); err != nil {
		return corrupt(err)
	}
	if gap != 0 {
		return 0, fmt.Errorf("cluster: wal: snapshot %s holds a politeness gap (%v), "+
			"which this build does not keep: a shard server with a gap refused every round", path, gap)
	}
	// Apply the snapshot incrementally: entry chunks are pushed as they
	// are read instead of accumulating into one giant State, so a
	// restart of a spilled frontier never holds it whole in RAM. The
	// frontier is reset first (dropping any pre-existing spill logs); a
	// snapshot that then turns out corrupt fails OpenWAL, so the partial
	// state is never served.
	s.shards.Reset()
	var dedups []dedupEntry
	done := false
	for !done {
		kind, body, _, err := readFrame(r)
		if err != nil {
			return corrupt(err)
		}
		d := newDec(body)
		switch kind {
		case walSnapEntries:
			chunk := decodeEntries(d)
			if d.finish() == nil {
				s.shards.PushBatch(chunk)
			}
		case walSnapDedup:
			n := int(d.u32())
			if n > walMaxDedup {
				return corrupt(nil)
			}
			for i := 0; i < n && d.finish() == nil; i++ {
				dedups = append(dedups, dedupEntry{id: d.fix64(), status: d.u8(), resp: []byte(d.str())})
			}
		case walSnapEnd:
			done = true
		default:
			return corrupt(fmt.Errorf("unexpected record kind %d", kind))
		}
		if err := d.finish(); err != nil {
			return corrupt(err)
		}
	}
	for _, de := range dedups {
		s.dedup.put(de.id, de.status, de.resp)
	}
	return seq, nil
}

// writeSnapshotLocked persists the current state (and dedup cache) as
// a snapshot covering every log file with sequence < seq. Entries are
// streamed out of the frontier one chunk frame at a time — never
// materialized whole — so compacting a spilled multi-gigabyte frontier
// neither doubles RSS nor hits a size ceiling. Written to a temp file,
// fsynced, then renamed, so a crash never leaves a partial snapshot in
// place.
func (s *ShardServer) writeSnapshotLocked(seq uint64) error {
	path := filepath.Join(s.wal.dir, walSnapName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, walSnapPerm)
	if err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	fail := func(err error) error {
		f.Close()
		return fmt.Errorf("cluster: wal: %w", err)
	}
	w := bufio.NewWriter(f)

	var hdr enc
	hdr.u64(seq)
	if _, err := writeFrame(w, walSnapHeader, hdr.b); err != nil {
		return fail(err)
	}
	if err := s.shards.StreamEntries(walSnapChunk, func(chunk []frontier.Entry) error {
		var e enc
		encodeEntries(&e, chunk)
		_, err := writeFrame(w, walSnapEntries, e.b)
		return err
	}); err != nil {
		return fail(err)
	}
	dedups := s.dedup.snapshotEntries()
	for off := 0; off < len(dedups); off += walSnapChunk {
		chunk := dedups[off:min(off+walSnapChunk, len(dedups))]
		var e enc
		e.u32(uint32(len(chunk)))
		for _, de := range chunk {
			e.fix64(de.id).u8(de.status).str(string(de.resp))
		}
		if _, err := writeFrame(w, walSnapDedup, e.b); err != nil {
			return fail(err)
		}
	}
	if _, err := writeFrame(w, walSnapEnd, nil); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	return nil
}

// compactWALLocked rotates to a fresh log file, snapshots the current
// state as covering everything before it, and deletes the covered
// logs. Caller holds walMu. Crash-safe at every step: an old snapshot
// plus both log files replays to the same state as the new snapshot
// plus the fresh (empty) log.
func (s *ShardServer) compactWALLocked() error {
	w := s.wal
	if w.broken != nil {
		// A poisoned log means the in-memory state may be ahead of what
		// clients were acknowledged (an apply whose append failed).
		// Snapshotting it would make that phantom state durable; the
		// intact on-disk log is the trustworthy record, so leave it for
		// a restart to replay.
		return fmt.Errorf("cluster: wal: refusing to compact a poisoned log: %w", w.broken)
	}
	newSeq := w.seq + 1
	nf, err := os.OpenFile(walFilePath(w.dir, newSeq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, walFilePerm)
	if err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	old := w.f
	w.f, w.seq = nf, newSeq
	if err := old.Close(); err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	if err := s.writeSnapshotLocked(newSeq); err != nil {
		return err
	}
	seqs, err := walFileSeqs(w.dir)
	if err != nil {
		return fmt.Errorf("cluster: wal: %w", err)
	}
	for _, seq := range seqs {
		if seq < newSeq {
			if err := os.Remove(walFilePath(w.dir, seq)); err != nil {
				return fmt.Errorf("cluster: wal: %w", err)
			}
		}
	}
	walCompactions.Inc()
	return nil
}

// CompactWAL folds the log into a fresh snapshot and truncates it. The
// shardd daemon runs it periodically; it is a no-op when persistence is
// disabled. Mutating ops are blocked for the duration (reads are not).
func (s *ShardServer) CompactWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	return s.compactWALLocked()
}

// CloseWAL writes a final snapshot — the graceful-shutdown flush that
// keeps every queued entry — and closes the log. The server should be
// closed first so no mutating ops race the final snapshot.
func (s *ShardServer) CloseWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.compactWALLocked()
	if cerr := s.wal.f.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}
