package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
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

// appendPlainValue writes rec as tag 0x01, the layout before links were
// front-coded: each link's length, then the links whole. Only
// directories written by older builds hold it.
func appendPlainValue(dst []byte, rec *PageRecord) []byte {
	dst = append(dst, recordTagPlain)
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
		"site links": {URL: "http://s.com/a/", Links: []string{"http://s.com/a/b", "http://s.com/a/b/c",
			"http://s.com/a/b", "http://s.com/", "http://t.com/", "http://s.com/a/"}},
	} {
		val := AppendValue(nil, &rec)
		for tag, v := range map[string][]byte{"0x02": val, "0x01": appendPlainValue(nil, &rec)} {
			if err := checkValue(rec.URL, v); err != nil {
				t.Errorf("%s, tag %s: checkValue: %v", name, tag, err)
			}
			got, err := DecodeValue(rec.URL, v)
			if err != nil {
				t.Errorf("%s, tag %s: %v", name, tag, err)
				continue
			}
			if !sameRecord(got, rec) {
				t.Errorf("%s, tag %s: decoded %+v", name, tag, got)
			}
			if (len(rec.Links) == 0 && got.Links != nil) || (len(rec.Content) == 0 && got.Content != nil) {
				t.Errorf("%s, tag %s: empty Links/Content must decode as nil, got %#v / %#v", name, tag, got.Links, got.Content)
			}
			if len(got.Content) > 0 && &got.Content[len(got.Content)-1] != &v[len(v)-1] {
				t.Errorf("%s, tag %s: Content does not alias the read buffer", name, tag)
			}
			if re := AppendValue(nil, &got); !bytes.Equal(re, val) {
				t.Errorf("%s, tag %s: re-encodes as % x, want % x", name, tag, re, val)
			}
		}
	}
}

// TestDecodePlainFixture decodes a tag-0x01 value as the build before
// front-coded links wrote it (the value of that build's frame golden).
func TestDecodePlainFixture(t *testing.T) {
	val, err := hex.DecodeString("010700000000000000000000000000f83f000000000000d03f03020901687474703a2f2f612f626869")
	if err != nil {
		t.Fatal(err)
	}
	want := PageRecord{URL: "http://g.example/", Checksum: 7, FetchedAt: 1.5, Version: -2,
		Importance: 0.25, Links: []string{"http://a/", "b"}, Content: []byte("hi")}
	got, err := DecodeValue(want.URL, val)
	if err != nil || !sameRecord(got, want) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, want)
	}
}

// TestValueCodecAllocations: checkValue allocates nothing, DecodeValue
// two allocations (the Links slice and one buffer for all their bytes)
// however many links a record has, under either tag.
func TestValueCodecAllocations(t *testing.T) {
	rec := PageRecord{URL: "http://s.com/p/1", Content: []byte("<html>")}
	for i := 0; i < 40; i++ {
		rec.Links = append(rec.Links, fmt.Sprintf("http://s%d.com/p/%d", i%3, i))
	}
	for tag, val := range map[string][]byte{"0x02": AppendValue(nil, &rec), "0x01": appendPlainValue(nil, &rec)} {
		if n := testing.AllocsPerRun(100, func() {
			if checkValue(rec.URL, val) != nil {
				t.Fatal("value refused")
			}
		}); n != 0 {
			t.Errorf("tag %s: checkValue allocates %v times", tag, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := DecodeValue(rec.URL, val); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("tag %s: DecodeValue allocates %v times, want at most 2", tag, n)
		}
	}
}

// TestLinkBombRefused: front-coding lets each link claim its
// predecessor's whole length for two bytes, so a short value can claim
// links of any size. Past maxLinkBytes the value is refused before
// anything is allocated for them.
func TestLinkBombRefused(t *testing.T) {
	const long, links = 1 << 10, 70 << 10 // 70 MiB decoded from about 210 KiB
	val := []byte{recordTag}
	val = append(val, make([]byte, 24)...)
	val = binary.AppendVarint(val, 0)
	val = binary.AppendUvarint(val, links)
	val = binary.AppendUvarint(binary.AppendUvarint(val, 0), long)
	for i := 1; i < links; i++ {
		val = binary.AppendUvarint(binary.AppendUvarint(val, long), 0)
	}
	val = append(val, make([]byte, long)...)
	if err := checkValue("u", val); !errors.Is(err, errLinksTooLarge) {
		t.Fatalf("checkValue = %v, want errLinksTooLarge", err)
	}
	var err error
	if n := allocatedBytes(func() { _, err = DecodeValue("u", val) }); n > 1<<20 || !errors.Is(err, errLinksTooLarge) {
		t.Fatalf("DecodeValue allocated %d bytes and returned %v, want nothing and errLinksTooLarge", n, err)
	}
}

// allocatedBytes reports the bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzRecordCodec: whatever record goes in comes out (floats by bits,
// empty as nil) under either tag, and AppendValue∘DecodeValue is the
// identity on what AppendValue writes. Then, for values damaged anywhere
// — either tag's encoding truncated at cut or with one bit flipped at
// flip — and for arbitrary bytes raw: checkValue accepts exactly what
// DecodeValue decodes, nothing panics, and what decodes survives being
// encoded and decoded again unchanged. (The frame's CRC, which refuses
// all such damage on disk, is seglog's and tested there.)
func FuzzRecordCodec(f *testing.F) {
	seed := PageRecord{URL: "http://a.com/", Links: []string{"http://a.com/x", "http://a.com/y"}, Content: []byte("<p>")}
	f.Add("http://a.com/", uint64(1), uint64(0x3ff8000000000000), uint64(0), int64(3), "http://a.com/x", "", []byte("<html>"), true, uint(5), uint(77), AppendValue(nil, &seed))
	f.Add("u", uint64(math.MaxUint64), uint64(0x7ff8000000000001), uint64(1)<<63, int64(-1), "", "", []byte(nil), false, uint(0), uint(0), appendPlainValue(nil, &seed))
	f.Add("k", uint64(0), uint64(1)<<63, uint64(0), int64(math.MinInt64), "l1", "l2", bytes.Repeat([]byte{7}, 1<<20), false, uint(1<<19), uint(9<<20), []byte{recordTag})
	f.Fuzz(func(t *testing.T, url string, sum, fetched, imp uint64, version int64, l1, l2 string, content []byte, emptyLinks bool, cut, flip uint, raw []byte) {
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
		val, plain := AppendValue(nil, &rec), appendPlainValue(nil, &rec)
		for _, v := range [][]byte{val, plain} {
			got, err := DecodeValue(url, v)
			if err != nil || !sameRecord(got, rec) {
				t.Fatalf("round trip of %+v through % x: %+v, %v", rec, v, got, err)
			}
			if len(rec.Links) == 0 && got.Links != nil || len(rec.Content) == 0 && got.Content != nil {
				t.Fatalf("empty decoded non-nil: %#v %#v", got.Links, got.Content)
			}
			if re := AppendValue(nil, &got); !bytes.Equal(re, val) {
				t.Fatalf("% x decodes to %+v, which encodes as % x, want % x", v, got, re, val)
			}
		}

		damaged := [][]byte{raw}
		for _, v := range [][]byte{val, plain} {
			flipped := bytes.Clone(v)
			bit := flip % (8 * uint(len(v)))
			flipped[bit/8] ^= 1 << (bit % 8)
			damaged = append(damaged, v[:cut%uint(len(v))], flipped)
		}
		for _, v := range damaged {
			got, err := DecodeValue(url, v)
			if cerr := checkValue(url, v); cerr != err {
				t.Fatalf("% x: checkValue says %v, DecodeValue %v", v, cerr, err)
			}
			if err != nil {
				continue
			}
			if again, err := DecodeValue(url, AppendValue(nil, &got)); err != nil || !sameRecord(again, got) {
				t.Fatalf("% x decoded to %+v, which re-encodes to %+v (%v)", v, got, again, err)
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
