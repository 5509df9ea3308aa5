package snap

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// decoded holds one value of every Reader method, in writeAll's order.
type decoded struct {
	U64   uint64
	U32   uint32
	U16   uint16
	U8    uint8
	Int   int
	Neg   int
	True  bool
	False bool
	Bytes []byte
	Str   string
	U64s  []uint64
	Bools []bool
	Empty string
	Len   int
	Last  uint64
}

var want = decoded{
	U64:   math.MaxUint64 - 1,
	U32:   0xDEADBEEF,
	U16:   0xBEEF,
	U8:    0xA5,
	Int:   math.MaxInt64,
	Neg:   -12345,
	True:  true,
	Bytes: []byte{0, 1, 2, 255},
	Str:   "gshare+BTB",
	U64s:  []uint64{0, 1, math.MaxUint64},
	Bools: []bool{true, false, true},
	Len:   3,
	Last:  42,
}

func writeAll(w *Writer, d decoded) {
	w.U64(d.U64)
	w.U32(d.U32)
	w.U16(d.U16)
	w.U8(d.U8)
	w.Int(d.Int)
	w.Int(d.Neg)
	w.Bool(d.True)
	w.Bool(d.False)
	w.Bytes8(d.Bytes)
	w.String(d.Str)
	w.U64s(d.U64s)
	w.Bools(d.Bools)
	w.String(d.Empty)
	w.U64(uint64(d.Len))
	w.U64(d.Last)
}

func readAll(r *Reader) decoded {
	return decoded{
		U64:   r.U64(),
		U32:   r.U32(),
		U16:   r.U16(),
		U8:    r.U8(),
		Int:   r.Int(),
		Neg:   r.Int(),
		True:  r.Bool(),
		False: r.Bool(),
		Bytes: r.Bytes8(),
		Str:   r.String(),
		U64s:  r.U64s(),
		Bools: r.Bools(),
		Empty: r.String(),
		Len:   r.Len(),
		Last:  r.U64(),
	}
}

func encoded() []byte {
	var w Writer
	writeAll(&w, want)
	return w.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encoded()
	r := NewReader(data)
	got := readAll(r)
	if err := r.Err(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Rest() != 0 {
		t.Fatalf("%d bytes left unread", r.Rest())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// Bytes8 copies out of the stream: mutating the input must not reach
	// the decoded slice.
	for i := range data {
		data[i] = 0
	}
	if !reflect.DeepEqual(got.Bytes, want.Bytes) {
		t.Fatalf("Bytes8 aliases the input stream: %v", got.Bytes)
	}
}

// Every strict prefix of a valid stream is a truncated checkpoint: decoding
// it must fail cleanly, and the first error must stick.
func TestTruncatedPrefixFails(t *testing.T) {
	data := encoded()
	for n := 0; n < len(data); n++ {
		r := NewReader(data[:n])
		readAll(r)
		err := r.Err()
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
		if r.U64() != 0 || r.String() != "" || r.U64s() != nil || r.Bools() != nil || r.Bytes8() != nil {
			t.Fatalf("prefix %d: reads after an error returned non-zero values", n)
		}
		r.Fail("later failure")
		if r.Err() != err {
			t.Fatalf("prefix %d: error not sticky: %v then %v", n, err, r.Err())
		}
	}
}

// A corrupt length prefix must fail before the reader allocates for it.
func TestImplausibleLength(t *testing.T) {
	for name, read := range map[string]func(*Reader){
		"Bytes8": func(r *Reader) { r.Bytes8() },
		"String": func(r *Reader) { _ = r.String() },
		"U64s":   func(r *Reader) { r.U64s() },
		"Bools":  func(r *Reader) { r.Bools() },
		"Len":    func(r *Reader) { r.Len() },
	} {
		var w Writer
		w.U64(1 << 40)
		w.U64(7)
		r := NewReader(w.Bytes())
		read(r)
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), "implausible length") {
			t.Errorf("%s with length 1<<40: err = %v, want implausible length", name, err)
		}
	}
}

// A length that passes the plausibility bound but cannot be backed by the
// remaining bytes fails without allocating for it.
func TestSliceLengthExceedsInputNoAlloc(t *testing.T) {
	for name, read := range map[string]func(*Reader){
		"U64s":  func(r *Reader) { r.U64s() },
		"Bools": func(r *Reader) { r.Bools() },
	} {
		var w Writer
		w.U64(1 << 20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(w.Bytes())
		read(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: 8-byte stream holding length 1<<20 decoded without error", name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
			t.Errorf("%s: allocated %d bytes before failing, want < 64 KiB", name, d)
		}
	}
}

func TestFailRecordsFirstError(t *testing.T) {
	r := NewReader(encoded())
	r.Fail("bad %s", "field")
	r.Fail("second")
	if err := r.Err(); err == nil || err.Error() != "bad field" {
		t.Fatalf("Err = %v, want the first Fail", err)
	}
	if r.U64() != 0 {
		t.Fatal("read after Fail returned data")
	}
}
