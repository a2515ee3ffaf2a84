package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var buf []byte
	buf = binary.AppendUvarint(buf, 1<<63)
	buf = binary.AppendVarint(buf, -1<<62)
	buf = AppendString(buf, "héllo")
	buf = AppendBytes(buf, []byte{0, 1, 2})
	buf = AppendBool(buf, true)
	buf = AppendFloat64(buf, math.Inf(-1))
	buf = AppendStrings(buf, []string{"a", ""})
	buf = AppendInt64s(buf, []int64{-5, 6})
	buf = AppendInts(buf, nil)
	buf = append(buf, 0xAB)

	var d Dec
	d.Reset(buf)
	got := []any{d.Uvarint(), d.Varint(), d.Str(), d.Bytes(), d.Bool(), d.Float64(),
		d.Strings(), d.Int64s(), d.Ints(), d.Byte()}
	want := []any{uint64(1 << 63), int64(-1 << 62), "héllo", []byte{0, 1, 2}, true, math.Inf(-1),
		[]string{"a", ""}, []int64{-5, 6}, []int(nil), byte(0xAB)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	if !d.Done() || d.More() {
		t.Fatalf("cursor not at a clean end: err %v", d.Err())
	}
}

// TestDecStickyError: once a read fails every later read returns zero and
// the error stays set, so a decoder checks once at the end.
func TestDecStickyError(t *testing.T) {
	var d Dec
	d.Reset([]byte{5, 'a'}) // a 5-byte string with one byte present
	if s := d.Str(); s != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("short string read %q, err %v", s, d.Err())
	}
	if d.Uvarint() != 0 || d.Bool() || d.More() || d.Done() {
		t.Fatal("reads after an error must return zero values")
	}
	// A count beyond the unread bytes is corrupt, not an allocation.
	d.Reset(binary.AppendUvarint(nil, 1<<40))
	if n := d.Count(); n != 0 || d.Err() == nil {
		t.Fatalf("Count() = %d, err %v, want 0 and an error", n, d.Err())
	}
}

func TestFrames(t *testing.T) {
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	bodies := [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{7}, 3*readChunk/2)}
	for _, b := range bodies {
		if err := WriteFrame(w, b); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	r := bufio.NewReader(&stream)
	var buf []byte
	for i, want := range bodies {
		got, err := ReadFrame(r, buf, 2*readChunk)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes, %v", i, len(got), err)
		}
		buf = got
	}
	if _, err := ReadFrame(r, buf, 2*readChunk); err != io.EOF {
		t.Fatalf("read past the last frame: %v, want io.EOF", err)
	}

	over := binary.AppendUvarint(nil, 11)
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(over)), nil, 10); !errors.Is(err, ErrTooBig) {
		t.Fatalf("length above the bound: %v, want ErrTooBig", err)
	}
}

// TestReadFrameHostileLength: a length prefix promising a gigabyte followed
// by a few bytes fails as a torn frame after allocating about one read
// chunk, not the declared length. The bound allows for the race detector's
// build, whose slices.Grow allocates the chunk twice.
func TestReadFrameHostileLength(t *testing.T) {
	in := append(binary.AppendUvarint(nil, 1<<30), "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(in)), nil, 1<<30)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn frame: %v, want ErrCorrupt wrapping io.ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4*readChunk {
		t.Fatalf("hostile length prefix allocated %d bytes", n)
	}
}
