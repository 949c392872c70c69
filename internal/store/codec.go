package store

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
)

// Record value layout. A record is one internal/seglog frame (CRC, key
// and value lengths, key, value) keyed by its URL, which the value does
// not repeat. The value is also the record on the store wire: a remote
// client frames it with AppendValue, the store server appends those
// bytes verbatim and reads them back with one pread, and only the
// reader that wants a PageRecord decodes it.
//
//	tag byte: 0x02 (0x01 in directories written before links were front-coded)
//	Checksum uint64 | FetchedAt float64 bits | Importance float64 bits
//	Version varint (zigzag)
//	len(Links) uvarint
//	each link's lengths: 0x02: shared-prefix uvarint, suffix-length uvarint
//	                     0x01: length uvarint
//	the links' stored bytes (0x02: the suffixes), back to back
//	Content: every remaining byte
//
// Under tag 0x02 each link is front-coded against the link before it,
// and the first against the record's URL: a page's links mostly share
// its site's prefix, and a list of them shares longer ones. Tag 0x01
// stores each link whole; it is read forever and no longer written.
//
// The body comes last and raw, so a decoded record's Content is a slice
// of the buffer the value was read into; floats round-trip by bits
// (NaN, -0); empty Links and Content decode as nil.
const (
	recordTagPlain = 0x01 // links stored whole: read, never written
	recordTag      = 0x02 // links front-coded: what AppendValue writes
	recordFixed    = 1 + 3*8

	// maxLinkBytes bounds what one record's links may decode to. Front
	// coding lets two bytes claim a link as long as the one before it,
	// so without a bound a short value could make its reader allocate
	// without limit; a page's links take kilobytes. It is the 64 MiB the
	// cluster wire caps a frame at.
	maxLinkBytes = 64 << 20
)

var (
	// ErrRecordFormat reports a stored value that does not start with a
	// record codec tag: the directory was written by a build that stored
	// JSON values, which this one does not read.
	ErrRecordFormat = errors.New("store: record value lacks the binary codec tag (directory written by an older, JSON-valued build?)")

	errCorruptRecord = errors.New("store: corrupt record value")
	errLinksTooLarge = errors.New("store: record links decode past 64 MiB")
)

// AppendValue appends rec's record value (tag 0x02) to dst.
func AppendValue(dst []byte, rec *PageRecord) []byte {
	dst = append(dst, recordTag)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Checksum)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.FetchedAt))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Importance))
	dst = binary.AppendVarint(dst, int64(rec.Version))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Links)))
	prev := rec.URL
	for _, l := range rec.Links {
		shared := sharedPrefix(prev, l)
		dst = binary.AppendUvarint(dst, uint64(shared))
		dst = binary.AppendUvarint(dst, uint64(len(l)-shared))
		prev = l
	}
	prev = rec.URL
	for _, l := range rec.Links {
		dst = append(dst, l[sharedPrefix(prev, l):]...)
		prev = l
	}
	return append(dst, rec.Content...)
}

// checkRecord refuses what no backend stores: a record without a URL,
// and one whose value would not decode, its links being over
// maxLinkBytes.
func checkRecord(rec *PageRecord) error {
	if rec.URL == "" {
		return errors.New("store: empty URL")
	}
	n := 0
	for _, l := range rec.Links {
		n += len(l)
	}
	if n > maxLinkBytes {
		return errLinksTooLarge
	}
	return nil
}

func sharedPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// valueShape is what one structural walk of a value found: everything
// DecodeValue needs to build the record without checking anything
// again.
type valueShape struct {
	version int64
	links   int    // how many links
	front   bool   // tag 0x02: each link's lengths are (shared, suffix)
	lens    []byte // the links' length fields, first to last
	size    int    // bytes of all links, decoded
	rest    []byte // the links' stored bytes, then the content
	stored  int    // how much of rest the links' stored bytes take
}

// walkValue checks val's structure, allocating nothing: the tag, the
// fixed head, every varint, every shared prefix against the length of
// the link it is shared with, the links' decoded size, and their stored
// bytes against what remains of val.
func walkValue(url string, val []byte) (valueShape, error) {
	if len(val) == 0 || val[0] != recordTag && val[0] != recordTagPlain {
		return valueShape{}, ErrRecordFormat
	}
	if len(val) < recordFixed {
		return valueShape{}, errCorruptRecord
	}
	s := valueShape{front: val[0] == recordTag}
	p := val[recordFixed:]
	version, n := binary.Varint(p)
	if n <= 0 {
		return valueShape{}, errCorruptRecord
	}
	s.version, p = version, p[n:]
	links, n := binary.Uvarint(p)
	if n <= 0 || links > uint64(len(p)-n) { // every link has a length byte
		return valueShape{}, errCorruptRecord
	}
	s.links, s.lens, p = int(links), p[n:], p[n:]
	prev, stored, size := uint64(len(url)), uint64(0), uint64(0)
	for range s.links {
		shared, suffix, rest, ok := nextLink(p, s.front)
		if !ok || shared > prev || suffix > uint64(len(val)) {
			return valueShape{}, errCorruptRecord
		}
		p, prev = rest, shared+suffix
		stored += suffix
		if size += prev; size > maxLinkBytes {
			return valueShape{}, errLinksTooLarge
		}
	}
	if stored > uint64(len(p)) {
		return valueShape{}, errCorruptRecord
	}
	s.rest, s.stored, s.size = p, int(stored), int(size)
	return s, nil
}

// nextLink reads one link's length fields off p: the prefix it shares
// with the link before it (always 0 under tag 0x01) and the length of
// the suffix the value stores.
func nextLink(p []byte, front bool) (shared, suffix uint64, rest []byte, ok bool) {
	if front {
		var n int
		if shared, n = binary.Uvarint(p); n <= 0 {
			return 0, 0, nil, false
		}
		p = p[n:]
	}
	suffix, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, nil, false
	}
	return shared, suffix, p[n:], true
}

// checkValue reports the error DecodeValue(url, val) would return,
// without decoding or allocating: the store checks every value it is
// handed in encoded form before appending it.
func checkValue(url string, val []byte) error {
	_, err := walkValue(url, val)
	return err
}

// DecodeValue is AppendValue's inverse, for either tag. Two allocations
// at most, whatever the number of links: the Links slice and one buffer
// holding all their bytes; Content is val's tail.
func DecodeValue(url string, val []byte) (PageRecord, error) {
	s, err := walkValue(url, val)
	if err != nil {
		return PageRecord{}, err
	}
	rec := PageRecord{
		URL:        url,
		Checksum:   binary.LittleEndian.Uint64(val[1:]),
		FetchedAt:  math.Float64frombits(binary.LittleEndian.Uint64(val[9:])),
		Importance: math.Float64frombits(binary.LittleEndian.Uint64(val[17:])),
		Version:    int(s.version),
	}
	if s.links > 0 {
		rec.Links = make([]string, s.links)
		var all strings.Builder
		all.Grow(s.size)
		lens, stored, prev := s.lens, s.rest[:s.stored], url
		for i := range rec.Links {
			shared, suffix, rest, _ := nextLink(lens, s.front)
			lens = rest
			start := all.Len()
			all.WriteString(prev[:shared])
			all.Write(stored[:suffix])
			stored = stored[suffix:]
			// A view of the bytes just written: a Builder never rewrites
			// what it holds, and this one was grown to fit every link.
			prev = all.String()[start:]
			rec.Links[i] = prev
		}
	}
	if content := s.rest[s.stored:]; len(content) > 0 {
		rec.Content = content
	}
	return rec, nil
}
