// Package bytecode implements the compact binary ("bytecode") encoding of
// IR modules described in §2.5 and §4.1.3 of the paper: a flat, linear
// layout in which most instructions occupy a single 32-bit word, with a
// variable-length escape encoding for instructions whose operands, types,
// or value numbers do not fit. Encoding and decoding are lossless: a module
// round-trips through bytecode to an identical textual form. The byte-level
// codecs (varints, strings, fixed-width words) are package wire's.
package bytecode

import "repro/internal/wire"

// Magic identifies bytecode files ("llvm" in the original; "LLBC" here).
var Magic = [4]byte{'L', 'L', 'B', 'C'}

// Version of the encoding format.
const Version = 1

// ErrTruncated is returned when the input ends mid-record.
var ErrTruncated = wire.ErrTruncated

// stringTable dedupes strings during encoding; index 0 is reserved for "".
type stringTable struct {
	byVal map[string]uint64
	list  []string
}

func newStringTable() *stringTable {
	return &stringTable{byVal: map[string]uint64{"": 0}, list: []string{""}}
}

func (st *stringTable) id(s string) uint64 {
	if id, ok := st.byVal[s]; ok {
		return id
	}
	id := uint64(len(st.list))
	st.byVal[s] = id
	st.list = append(st.list, s)
	return id
}
