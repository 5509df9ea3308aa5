// Package snap implements the tiny binary codec used by warm-state
// checkpoints. It is deliberately minimal: a little-endian, in-memory,
// append-only Writer and a sticky-error Reader, with no reflection and no
// I/O. Every simulator component that participates in Snapshot/Restore
// encodes its dynamic state through these two types, so the byte layout
// of a checkpoint is exactly the concatenation of the components'
// hand-written encoders — deterministic by construction.
//
// Snapshot encoding is cold-path code: it runs once per warm-up group,
// never inside the cycle loop, so allocation here is fine.
package snap

import "fmt"

// Writer accumulates a snapshot byte stream.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated stream. The slice aliases the writer's
// buffer; callers must not append to the writer afterwards.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = append(w.buf,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) { w.buf = append(w.buf, byte(v), byte(v>>8)) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Int appends an int as a sign-extended uint64.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Bytes8 appends a length-prefixed byte slice.
func (w *Writer) Bytes8(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// U64s appends a length-prefixed []uint64.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// Bools appends a length-prefixed []bool.
func (w *Writer) Bools(vs []bool) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.Bool(v)
	}
}

// Reader decodes a snapshot byte stream produced by Writer. Errors are
// sticky: after the first decode failure every subsequent call returns
// zero values, so callers can decode a whole structure and check Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the number of unread bytes.
func (r *Reader) Rest() int { return len(r.data) - r.off }

// Fail records an external decode error (e.g. a semantic validation
// failure) so the sticky-error contract covers it too.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.data)-r.off < n {
		r.err = fmt.Errorf("snap: truncated stream: need %d bytes at offset %d, have %d", n, r.off, len(r.data)-r.off)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Int reads an int written with Writer.Int.
func (r *Reader) Int() int { return int(int64(r.U64())) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Bytes8 reads a length-prefixed byte slice (copied out of the stream).
func (r *Reader) Bytes8() []byte {
	n := r.len()
	b := r.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.len()
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// U64s reads a length-prefixed []uint64.
func (r *Reader) U64s() []uint64 {
	n := r.elems(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// Bools reads a length-prefixed []bool.
func (r *Reader) Bools() []bool {
	n := r.elems(1)
	if r.err != nil {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Bool()
	}
	return out
}

// Len reads a length prefix, validating it against the remaining input so
// corrupt streams fail fast instead of allocating absurd buffers.
func (r *Reader) Len() int { return r.len() }

// elems reads the length prefix of a slice of fixed-size elements and
// checks that n elements of size bytes each fit in the unread input, so a
// corrupt length fails before the slice is allocated.
func (r *Reader) elems(size int) int {
	n := r.len()
	if r.err == nil && n > r.Rest()/size {
		r.err = fmt.Errorf("snap: truncated stream: %d elements of %d bytes at offset %d, have %d bytes", n, size, r.off, r.Rest())
		return 0
	}
	return n
}

func (r *Reader) len() int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)-r.off)+1<<20 {
		r.err = fmt.Errorf("snap: implausible length %d at offset %d (stream has %d bytes left)", n, r.off, len(r.data)-r.off)
		return 0
	}
	return int(n)
}
