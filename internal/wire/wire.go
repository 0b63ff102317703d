// Package wire is the byte layer under the repository's three binary
// formats: bytecode (§2.5 of the paper), the LLPT1 points-to summaries and
// the .sum interprocedural summary sidecar (§3.3). It holds the only
// LEB128 varint, length-prefixed string and fixed-width codecs.
//
// A Reader keeps the first failure and where it happened: truncation, a
// varint that overflows 64 bits, a count larger than the remaining input
// can hold, or an error the decoder reports through Fail. After a failure
// every read returns its zero value and the offset stays at the failure,
// so a decoder checks Err once per record instead of after every field,
// and always before it builds anything from the values it read.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

var (
	// ErrTruncated reports input that ends mid-record, or a count that
	// claims more items than the remaining input can hold.
	ErrTruncated = errors.New("truncated input")
	// ErrOverflow reports a varint whose value does not fit in 64 bits.
	ErrOverflow = errors.New("varint overflows 64 bits")
)

// Writer accumulates an encoding. The zero value is ready to use.
type Writer struct{ buf []byte }

// Bytes returns the encoding written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Raw appends b unchanged.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Byte appends one byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends 1 for true and 0 for false.
func (w *Writer) Bool(b bool) {
	if b {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// U32 appends a big-endian 32-bit word.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// F64 appends the IEEE 754 bits of v, little-endian.
func (w *Writer) F64(v float64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v)) }

// Uvarint appends v as unsigned LEB128.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Svarint appends v zigzag-encoded as unsigned LEB128.
func (w *Writer) Svarint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Str appends s as a varint length followed by its bytes.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes an encoding and records its first failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the position of the next read; after a failure, the
// position at which it happened.
func (r *Reader) Offset() int { return r.off }

// Remaining returns the number of unread bytes, zero after a failure.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Fail records err at the current offset unless a failure is already
// recorded. Later reads return zero values.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		r.buf = r.buf[:r.off]
	}
}

// Failf records a formatted error, like Fail.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.Fail(fmt.Errorf(format, args...))
	}
}

// take consumes n bytes, or fails with ErrTruncated and returns nil.
func (r *Reader) take(n int) []byte {
	if n > r.Remaining() {
		r.Fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Expect consumes len(magic) bytes and fails unless they equal magic.
func (r *Reader) Expect(magic string) {
	if b := r.take(len(magic)); b != nil && string(b) != magic {
		r.off -= len(magic)
		r.Failf("bad magic %q", b)
	}
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off < len(r.buf) {
		b := r.buf[r.off]
		r.off++
		return b
	}
	r.Fail(ErrTruncated)
	return 0
}

// Peek returns the next byte without consuming it.
func (r *Reader) Peek() byte {
	if r.off < len(r.buf) {
		return r.buf[r.off]
	}
	r.Fail(ErrTruncated)
	return 0
}

// U32 reads a big-endian 32-bit word.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// F64 reads a little-endian IEEE 754 double.
func (r *Reader) F64() float64 {
	if b := r.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Uvarint reads an unsigned LEB128 value.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n > 0:
		r.off += n
		return v
	case n == 0:
		r.Fail(ErrTruncated)
	default:
		r.Fail(ErrOverflow)
	}
	return 0
}

// Svarint reads a zigzag-encoded signed value.
func (r *Reader) Svarint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Str reads a varint length and that many bytes as a string.
func (r *Reader) Str() string {
	start := r.off
	n := r.Uvarint()
	if n > uint64(r.Remaining()) {
		r.off = start
		r.Fail(ErrTruncated)
		return ""
	}
	return string(r.take(int(n)))
}

// Count reads the varint length of a list whose every item takes at least
// minBytesPerItem bytes of what follows. A count the remaining input cannot
// hold fails with ErrTruncated and reads as zero, so callers may allocate
// for the count they get.
func (r *Reader) Count(minBytesPerItem int) int {
	start := r.off
	n := r.Uvarint()
	if left := r.Remaining(); n > uint64(left/minBytesPerItem) {
		r.off = start
		r.Fail(fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrTruncated, n, left))
		return 0
	}
	return int(n)
}
