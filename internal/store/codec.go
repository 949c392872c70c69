package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Frame layout (little endian), shared by records and tombstones:
//
//	crc32(keyLen ++ valLen ++ key ++ val) uint32
//	keyLen uint32 | valLen uint32 (valLen == tombstoneLen means delete)
//	key bytes | val bytes
//
// Record value layout — the URL is the frame's key and is not repeated:
//
//	recordTag byte
//	Checksum uint64 | FetchedAt float64 bits | Importance float64 bits
//	Version varint (zigzag)
//	len(Links) uvarint | each link's length uvarint | the links' bytes
//	Content: every remaining byte
//
// The body comes last and raw, so a decoded record's Content is a slice
// of the buffer the frame was read into; floats round-trip by bits
// (NaN, -0); empty Links and Content decode as nil.
const (
	frameHeader  = 12
	tombstoneLen = ^uint32(0)
	recordTag    = 0x01 // not '{': a JSON value of an older build is told apart
	recordFixed  = 1 + 3*8
)

var (
	// ErrRecordFormat reports a stored value that does not start with the
	// record codec's tag: the directory was written by a build that stored
	// JSON values, which this one does not read.
	ErrRecordFormat = errors.New("store: record value lacks the binary codec tag (directory written by an older, JSON-valued build?)")

	errCorruptRecord = errors.New("store: corrupt record value")
	errCorruptIndex  = errors.New("store: corrupt frame at indexed offset")
)

// appendFrame appends one whole frame for key to dst: rec's value, or a
// tombstone when rec is nil.
func appendFrame(dst []byte, key string, rec *PageRecord) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, frameHeader)...)
	dst = append(dst, key...)
	valLen := tombstoneLen
	if rec != nil {
		n := len(dst)
		dst = appendValue(dst, rec)
		valLen = uint32(len(dst) - n)
	}
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(hdr[8:], valLen)
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(hdr[4:]))
	return dst
}

func appendValue(dst []byte, rec *PageRecord) []byte {
	dst = append(dst, recordTag)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Checksum)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.FetchedAt))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Importance))
	dst = binary.AppendVarint(dst, int64(rec.Version))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Links)))
	for _, l := range rec.Links {
		dst = binary.AppendUvarint(dst, uint64(len(l)))
	}
	for _, l := range rec.Links {
		dst = append(dst, l...)
	}
	return append(dst, rec.Content...)
}

// checkFrame verifies a whole record frame — lengths consistent with
// the buffer, CRC — and returns its key and value bytes. ok is false for
// anything else, a tombstone included.
func checkFrame(frame []byte) (key, val []byte, ok bool) {
	if len(frame) < frameHeader {
		return nil, nil, false
	}
	keyLen := uint64(binary.LittleEndian.Uint32(frame[4:]))
	valLen := uint64(binary.LittleEndian.Uint32(frame[8:]))
	if frameHeader+keyLen+valLen != uint64(len(frame)) ||
		crc32.ChecksumIEEE(frame[4:]) != binary.LittleEndian.Uint32(frame) {
		return nil, nil, false
	}
	return frame[frameHeader : frameHeader+keyLen], frame[frameHeader+keyLen:], true
}

// decodeFrame decodes the record frame the index holds for url. The
// frame must be whole, pass its CRC and carry that very key: anything
// else means corruption, or a read that outlived its segment pin (a
// bug). The returned record's Content aliases frame.
func decodeFrame(url string, frame []byte) (PageRecord, error) {
	key, val, ok := checkFrame(frame)
	if !ok || string(key) != url {
		return PageRecord{}, errCorruptIndex
	}
	return decodeValue(url, val)
}

// decodeValue is appendValue's inverse. Three allocations at most,
// whatever the number of links: the Links slice and one string holding
// all their bytes; Content is val's tail.
func decodeValue(url string, val []byte) (PageRecord, error) {
	if len(val) == 0 || val[0] != recordTag {
		return PageRecord{}, ErrRecordFormat
	}
	if len(val) < recordFixed {
		return PageRecord{}, errCorruptRecord
	}
	rec := PageRecord{
		URL:        url,
		Checksum:   binary.LittleEndian.Uint64(val[1:]),
		FetchedAt:  math.Float64frombits(binary.LittleEndian.Uint64(val[9:])),
		Importance: math.Float64frombits(binary.LittleEndian.Uint64(val[17:])),
	}
	p := val[recordFixed:]
	version, n := binary.Varint(p)
	if n <= 0 {
		return PageRecord{}, errCorruptRecord
	}
	rec.Version = int(version)
	p = p[n:]
	links, n := binary.Uvarint(p)
	p = p[n:]
	if n <= 0 || links > uint64(len(p)) { // every link has a length byte
		return PageRecord{}, errCorruptRecord
	}
	if links > 0 {
		rec.Links = make([]string, links)
		lens, total := p, uint64(0)
		for range rec.Links {
			l, n := binary.Uvarint(p)
			if n <= 0 || l > uint64(len(val)) {
				return PageRecord{}, errCorruptRecord
			}
			p, total = p[n:], total+l
		}
		if total > uint64(len(p)) {
			return PageRecord{}, errCorruptRecord
		}
		all := string(p[:total])
		p = p[total:]
		for i := range rec.Links {
			l, n := binary.Uvarint(lens)
			lens = lens[n:]
			rec.Links[i], all = all[:l], all[l:]
		}
	}
	if len(p) > 0 {
		rec.Content = p
	}
	return rec, nil
}
