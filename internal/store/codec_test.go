package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"testing"
)

// sameRecord compares by value with floats by bits (NaN, -0) and with
// empty Links/Content equal to nil — the codec's stated normal form.
func sameRecord(a, b PageRecord) bool {
	if a.URL != b.URL || a.Checksum != b.Checksum || a.Version != b.Version ||
		math.Float64bits(a.FetchedAt) != math.Float64bits(b.FetchedAt) ||
		math.Float64bits(a.Importance) != math.Float64bits(b.Importance) ||
		!bytes.Equal(a.Content, b.Content) || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

func TestRecordCodecRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5, 0x00, '{'}, 1<<20/3+1)
	for name, rec := range map[string]PageRecord{
		"zero":         {URL: "u"},
		"nil links":    {URL: "u", Content: []byte("x")},
		"empty links":  {URL: "u", Links: []string{}, Content: []byte{}},
		"empty link":   {URL: "u", Links: []string{"", "a", ""}},
		"nan":          {URL: "u", FetchedAt: math.NaN(), Importance: math.Float64frombits(0x7ff8000000000abc)},
		"neg zero":     {URL: "u", FetchedAt: math.Copysign(0, -1), Importance: math.Inf(-1)},
		"neg version":  {URL: "u", Version: math.MinInt32, Checksum: math.MaxUint64},
		"1 MiB body":   {URL: "http://big/", Links: []string{"http://a/", "http://b/"}, Content: big},
		"binary links": {URL: "u", Links: []string{"\x00\xff", string(make([]byte, 300))}, Content: []byte{recordTag}},
	} {
		val := appendValue(nil, &rec)
		got, err := decodeValue(rec.URL, val)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !sameRecord(got, rec) {
			t.Errorf("%s: decoded %+v", name, got)
		}
		if (len(rec.Links) == 0 && got.Links != nil) || (len(rec.Content) == 0 && got.Content != nil) {
			t.Errorf("%s: empty Links/Content must decode as nil, got %#v / %#v", name, got.Links, got.Content)
		}
		if len(got.Content) > 0 && &got.Content[len(got.Content)-1] != &val[len(val)-1] {
			t.Errorf("%s: Content does not alias the read buffer", name)
		}
	}
}

// FuzzRecordCodec: whatever record goes in comes out (floats by bits,
// empty as nil), and a value damaged anywhere — truncated at cut, one bit
// flipped at flip — never panics and never decodes as anything but what
// its bytes say. (The frame's CRC, which refuses all such damage on
// disk, is seglog's and tested there.)
func FuzzRecordCodec(f *testing.F) {
	f.Add("http://a.com/", uint64(1), uint64(0x3ff8000000000000), uint64(0), int64(3), "http://a.com/x", "", []byte("<html>"), true, uint(5), uint(77))
	f.Add("u", uint64(math.MaxUint64), uint64(0x7ff8000000000001), uint64(1)<<63, int64(-1), "", "", []byte(nil), false, uint(0), uint(0))
	f.Add("k", uint64(0), uint64(1)<<63, uint64(0), int64(math.MinInt64), "l1", "l2", bytes.Repeat([]byte{7}, 1<<20), false, uint(1<<19), uint(9<<20))
	f.Fuzz(func(t *testing.T, url string, sum, fetched, imp uint64, version int64, l1, l2 string, content []byte, emptyLinks bool, cut, flip uint) {
		rec := PageRecord{
			URL: url, Checksum: sum, Version: int(version), Content: content,
			FetchedAt: math.Float64frombits(fetched), Importance: math.Float64frombits(imp),
		}
		switch {
		case l1 != "" || l2 != "":
			rec.Links = []string{l1, l2}
		case emptyLinks:
			rec.Links = []string{}
		}
		val := appendValue(nil, &rec)
		got, err := decodeValue(url, val)
		if err != nil || !sameRecord(got, rec) {
			t.Fatalf("round trip of %+v: %+v, %v", rec, got, err)
		}
		if len(rec.Links) == 0 && got.Links != nil || len(rec.Content) == 0 && got.Content != nil {
			t.Fatalf("empty decoded non-nil: %#v %#v", got.Links, got.Content)
		}

		cut %= uint(len(val))
		flip %= 8 * uint(len(val))
		flipped := bytes.Clone(val)
		flipped[flip/8] ^= 1 << (flip % 8)

		// The value codec alone has no CRC to lean on: damage may decode
		// (a flipped body bit is just another body) but must not panic,
		// and what it accepts it must have read faithfully — encoding it
		// again gives the same bytes (or fewer: an overlong varint).
		for _, v := range [][]byte{val[:cut], flipped} {
			if got, err := decodeValue(url, v); err == nil {
				if re := appendValue(nil, &got); len(re) == len(v) && !bytes.Equal(re, v) {
					t.Fatalf("damaged value % x decoded to %+v, which encodes as % x", v, got, re)
				}
			}
		}
	})
}

// A directory whose values are the JSON of an older build opens (replay
// checks frames, not values) and fails every Get with the named error:
// there is deliberately no fallback reader.
func TestDiskJSONValueIsNamedError(t *testing.T) {
	dir := t.TempDir()
	old := PageRecord{URL: "http://old.com/", Checksum: 9, Content: []byte("body")}
	val, err := json.Marshal(old)
	if err != nil {
		t.Fatal(err)
	}
	// The frame an older build wrote: same header, JSON value.
	frame := append(append(make([]byte, 12), old.URL...), val...)
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(old.URL)))
	binary.LittleEndian.PutUint32(frame[8:], uint32(len(val)))
	binary.LittleEndian.PutUint32(frame[0:], crc32.ChecksumIEEE(frame[4:]))
	if err := os.WriteFile(segmentPath(dir, 1), frame, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != 1 || !reflect.DeepEqual(d.URLs(), []string{old.URL}) {
		t.Fatalf("replay indexed %d records %v, want the one old record", d.Len(), d.URLs())
	}
	if _, ok, err := d.Get(old.URL); !errors.Is(err, ErrRecordFormat) || ok {
		t.Fatalf("Get of a JSON value: ok=%v err=%v, want ErrRecordFormat", ok, err)
	}
	if err := d.Scan(func(PageRecord) bool { return true }); !errors.Is(err, ErrRecordFormat) {
		t.Fatalf("Scan over a JSON value: %v, want ErrRecordFormat", err)
	}
	// The store is otherwise usable: the record can be overwritten.
	if err := d.Put(old); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := d.Get(old.URL); err != nil || !ok || !sameRecord(got, old) {
		t.Fatalf("after overwrite: %+v %v %v", got, ok, err)
	}
}
