package store

import (
	"encoding/binary"
	"errors"
	"math"
)

// Record value layout. A record is one internal/seglog frame (CRC, key
// and value lengths, key, value) keyed by its URL, which the value does
// not repeat:
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
	recordTag   = 0x01 // not '{': a JSON value of an older build is told apart
	recordFixed = 1 + 3*8
)

var (
	// ErrRecordFormat reports a stored value that does not start with the
	// record codec's tag: the directory was written by a build that stored
	// JSON values, which this one does not read.
	ErrRecordFormat = errors.New("store: record value lacks the binary codec tag (directory written by an older, JSON-valued build?)")

	errCorruptRecord = errors.New("store: corrupt record value")
)

// appendValue appends rec's record value to dst.
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
