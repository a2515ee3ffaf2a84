// Package codec holds the binary primitives of the service's v2 wire
// messages, the disk log's entries and the replication stream's frames:
// varints (zigzag where signed), a uvarint count then the elements for
// strings and slices, one byte per bool, eight little-endian bytes per
// float64. Dec is a bounds-checked cursor with a sticky error, so a decoder
// is a straight run of field reads with one error check at the end.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

var (
	// ErrCorrupt marks a message that ended mid-field or holds a value no
	// encoder writes: a torn or corrupt message.
	ErrCorrupt = errors.New("codec: truncated or corrupt message")
	// ErrTooBig marks a frame length prefix beyond the reader's bound.
	ErrTooBig = errors.New("codec: frame exceeds size bound")
)

// AppendString appends s with its uvarint length prefix.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends b in AppendString's layout.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends v as one byte.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendFloat64 appends v as eight little-endian bytes.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendStrings appends a count and then each string.
func AppendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = AppendString(buf, s)
	}
	return buf
}

// AppendInt64s appends a count and then each value as a varint.
func AppendInt64s(buf []byte, vs []int64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// AppendInts appends a count and then each value as a varint.
func AppendInts(buf []byte, vs []int) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, v := range vs {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// Dec is a bounds-checked cursor over one message. Every read returns a zero
// value once the error is set, so no input can make a decoder panic or read
// out of bounds.
type Dec struct {
	buf []byte
	pos int
	err error
}

// Reset points the cursor at the start of buf and clears the error.
func (d *Dec) Reset(buf []byte) { d.buf, d.pos, d.err = buf, 0, nil }

// Err returns the sticky error: nil, or ErrCorrupt.
func (d *Dec) Err() error { return d.err }

// More reports whether unread bytes remain and no error is set. A message
// whose newer versions append fields reads them only while More holds.
func (d *Dec) More() bool { return d.err == nil && d.pos < len(d.buf) }

// Done reports whether the whole message was read without error.
func (d *Dec) Done() bool { return d.err == nil && d.pos == len(d.buf) }

// Fail marks the message corrupt, for values the decoder itself rejects.
func (d *Dec) Fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.pos += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.Fail()
		return 0
	}
	d.pos += n
	return v
}

// Byte reads one raw byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.Fail()
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// Bool reads one byte; any non-zero byte is true.
func (d *Dec) Bool() bool { return d.Byte() != 0 }

// Float64 reads eight little-endian bytes.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.pos < 8 {
		d.Fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.pos:]))
	d.pos += 8
	return v
}

// Bytes reads a length-prefixed byte string. The result aliases the
// message buffer: copy it before the buffer is reused.
func (d *Dec) Bytes() []byte {
	n := d.Count()
	if d.err != nil || n == 0 {
		return nil
	}
	b := d.buf[d.pos : d.pos+n : d.pos+n]
	d.pos += n
	return b
}

// Str reads a length-prefixed string (a copy; it never aliases the buffer).
func (d *Dec) Str() string { return string(d.Bytes()) }

// Count reads a collection length and bounds it by the unread bytes: every
// element costs at least one byte, so a larger count is corruption and must
// not drive a huge allocation.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.buf)-d.pos) {
		d.Fail()
		return 0
	}
	return int(n)
}

// Strings reads a count and that many strings; nil when empty or corrupt.
func (d *Dec) Strings() []string {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Int64s reads a count and that many varints; nil when empty or corrupt.
func (d *Dec) Int64s() []int64 {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.Varint()
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Ints reads a count and that many varints; nil when empty or corrupt.
func (d *Dec) Ints() []int {
	n := d.Count()
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.Varint())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// WriteFrame writes one frame, uvarint(len(body)) then body, into w. The
// caller flushes.
func WriteFrame(w *bufio.Writer, body []byte) error {
	var head [binary.MaxVarintLen64]byte
	if _, err := w.Write(head[:binary.PutUvarint(head[:], uint64(len(body)))]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readChunk is how much of a frame ReadFrame reads per allocation step.
const readChunk = 1 << 20

// ReadFrame reads one frame of at most limit bytes from r into buf's storage.
// A length above limit is ErrTooBig, a stream ending mid-frame ErrCorrupt, an
// EOF before the length a clean end of stream. The buffer grows with the
// bytes that arrive, so a hostile length prefix cannot force an allocation
// much beyond what its sender really sent.
func ReadFrame(r *bufio.Reader, buf []byte, limit uint64) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return buf[:0], err
	}
	if n > limit {
		return buf[:0], ErrTooBig
	}
	buf = buf[:0]
	for rem := n; rem > 0; {
		c := min(rem, readChunk)
		start := len(buf)
		buf = slices.Grow(buf, int(c))[:start+int(c)]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("%w: %w", ErrCorrupt, io.ErrUnexpectedEOF)
			}
			return buf[:0], err
		}
		rem -= c
	}
	return buf, nil
}
