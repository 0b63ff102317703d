package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestVarintEdgeCases(t *testing.T) {
	var w Writer
	vals := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, math.MaxUint64}
	for _, v := range vals {
		w.Uvarint(v)
	}
	svals := []int64{0, -1, 1, -64, 64, -1 << 40, 1<<62 - 1, math.MinInt64, math.MaxInt64}
	for _, v := range svals {
		w.Svarint(v)
	}
	r := NewReader(w.Bytes())
	for _, want := range vals {
		if got := r.Uvarint(); r.Err() != nil || got != want {
			t.Fatalf("Uvarint(%d) = %d, %v", want, got, r.Err())
		}
	}
	for _, want := range svals {
		if got := r.Svarint(); r.Err() != nil || got != want {
			t.Fatalf("Svarint(%d) = %d, %v", want, got, r.Err())
		}
	}
	if r.Uvarint(); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("read past end: err = %v, want ErrTruncated", r.Err())
	}

	// The largest value takes ten bytes and its last byte carries only the
	// 64th bit.
	var max Writer
	max.Uvarint(math.MaxUint64)
	maxEnc := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	if !bytes.Equal(max.Bytes(), maxEnc) {
		t.Fatalf("MaxUint64 encodes as % x, want % x", max.Bytes(), maxEnc)
	}
	// A tenth byte with more than that bit set overflows, and so does an
	// eleventh byte.
	for _, enc := range [][]byte{
		append(bytes.Repeat([]byte{0xff}, 9), 0x7f),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
		append(bytes.Repeat([]byte{0x80}, 10), 0x00),
	} {
		r := NewReader(enc)
		if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), ErrOverflow) || r.Offset() != 0 {
			t.Errorf("Uvarint(% x) = %d, err %v, offset %d; want 0, ErrOverflow, 0", enc, v, r.Err(), r.Offset())
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var w Writer
	w.Raw([]byte("MAGC"))
	w.Byte(7)
	w.Bool(true)
	w.Bool(false)
	w.U32(0xdeadbeef)
	w.F64(-2.5)
	w.Str("")
	w.Str("hello")
	w.Uvarint(2)
	w.Byte(1)
	w.Byte(2)

	r := NewReader(w.Bytes())
	r.Expect("MAGC")
	if b := r.Byte(); b != 7 {
		t.Errorf("Byte = %d", b)
	}
	if a, b := r.Byte(), r.Byte(); a != 1 || b != 0 {
		t.Errorf("Bool bytes = %d %d", a, b)
	}
	if p, v := r.Peek(), r.U32(); p != 0xde || v != 0xdeadbeef {
		t.Errorf("Peek, U32 = %#x, %#x", p, v)
	}
	if v := r.F64(); v != -2.5 {
		t.Errorf("F64 = %v", v)
	}
	if a, b := r.Str(), r.Str(); a != "" || b != "hello" {
		t.Errorf("Str = %q %q", a, b)
	}
	if n := r.Count(1); n != 2 {
		t.Errorf("Count = %d", n)
	}
	r.Byte()
	r.Byte()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Remaining())
	}
}

// TestReaderFirstFailureWins: the first failure and its offset stick, and
// every later read returns a zero value without moving.
func TestReaderFirstFailureWins(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 0x80})
	r.Byte()
	if v := r.U32(); v != 0 || !errors.Is(r.Err(), ErrTruncated) || r.Offset() != 1 {
		t.Fatalf("U32 past end = %d, err %v, offset %d", v, r.Err(), r.Offset())
	}
	first := r.Err()
	r.Fail(errors.New("later"))
	if r.Byte() != 0 || r.Peek() != 0 || r.Uvarint() != 0 || r.Str() != "" || r.Count(1) != 0 ||
		r.F64() != 0 || r.Remaining() != 0 || r.Offset() != 1 || r.Err() != first {
		t.Fatalf("reads after a failure moved or returned data: offset %d, err %v", r.Offset(), r.Err())
	}

	// A semantic failure is recorded where the decoder stood.
	r = NewReader([]byte{5, 6})
	r.Byte()
	r.Failf("id %d out of range", 5)
	if r.Err() == nil || r.Err().Error() != "id 5 out of range" || r.Offset() != 1 || r.Byte() != 0 {
		t.Fatalf("Failf: err %v, offset %d", r.Err(), r.Offset())
	}

	r = NewReader([]byte("MAGX"))
	if r.Expect("MAGC"); r.Err() == nil || r.Offset() != 0 {
		t.Fatalf("bad magic: err %v, offset %d", r.Err(), r.Offset())
	}

	// A string longer than the input fails at its length.
	r = NewReader([]byte{9, 'a'})
	if s := r.Str(); s != "" || !errors.Is(r.Err(), ErrTruncated) || r.Offset() != 0 {
		t.Fatalf("long string = %q, err %v, offset %d", s, r.Err(), r.Offset())
	}
}

// TestCountBoundsAllocation: a count is accepted only when the bytes after
// it can hold that many items of the stated minimum size, so a hostile
// count can never size an allocation.
func TestCountBoundsAllocation(t *testing.T) {
	var w Writer
	w.Uvarint(3)
	w.Raw(make([]byte, 6))
	if n := NewReader(w.Bytes()).Count(2); n != 3 {
		t.Errorf("Count(2) over 6 bytes = %d, want 3", n)
	}
	r := NewReader(w.Bytes())
	if n := r.Count(3); n != 0 || !errors.Is(r.Err(), ErrTruncated) || r.Offset() != 0 {
		t.Errorf("Count(3) over 6 bytes = %d, err %v, offset %d", n, r.Err(), r.Offset())
	}
	var huge Writer
	huge.Uvarint(1 << 62)
	r = NewReader(huge.Bytes())
	if n := r.Count(1); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Count of 2^62 = %d, err %v", n, r.Err())
	}
}
