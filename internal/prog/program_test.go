package prog_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"smtfetch/internal/bench"
	"smtfetch/internal/isa"
	"smtfetch/internal/prog"
	"smtfetch/internal/snap"
)

// buildDigest is the SHA-256 of Dump over every benchmark profile (sorted
// by name) built at seeds 1 and 0x5EED_F00D, recorded before the program
// image was flattened: the flat layout must build the same programs.
const buildDigest = "6b006a532b548cc6236422044c27c2d609c140b2cae6a653b11f2a18ba202eb2"

func TestBuildGoldenDigest(t *testing.T) {
	names := bench.Names()
	if len(names) != 12 {
		t.Fatalf("%d profiles, want 12", len(names))
	}
	h := sha256.New()
	for _, name := range names {
		for _, seed := range []uint64{1, 0x5EED_F00D} {
			prog.Build(bench.MustProfile(name), seed).Dump(h)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != buildDigest {
		t.Fatalf("Build digest %s, want %s", got, buildDigest)
	}
}

// Build allocates a flat image: a fixed handful of slices per program,
// whatever its size.
func TestBuildAllocsBounded(t *testing.T) {
	const maxAllocs = 16
	for _, name := range bench.Names() {
		pf := bench.MustProfile(name)
		if a := testing.AllocsPerRun(3, func() { prog.Build(pf, 3) }); a > maxAllocs {
			t.Errorf("%s: Build made %v allocations, want <= %d", name, a, maxAllocs)
		}
	}
}

// Next must consume exactly what Peek(0)+Advance(1) consumes, leaving the
// stream in the same state: the same instructions over a long walk with
// wrong-path style Redirects, and entries Peek buffered ahead drained
// first.
func TestNextMatchesPeekAdvance(t *testing.T) {
	for _, name := range []string{"gcc", "mcf", "eon", "perlbmk"} {
		p := prog.Build(bench.MustProfile(name), 11)
		a, b := p.NewStream(5), p.NewStream(5)
		var got isa.Instruction
		for i := 0; i < 200_000; i++ {
			switch {
			case i%997 == 0:
				// Buffer lookahead on a, then let Next drain it.
				a.Peek(i % 5)
			case i%1009 == 0:
				// Steer both walks somewhere else, as the front end does
				// on a wrong path.
				pc := got.FallThrough + isa.Addr(4*(i%13))
				a.Redirect(pc)
				b.Redirect(pc)
			}
			a.Next(&got)
			want := *b.Peek(0)
			b.Advance(1)
			if got != want {
				t.Fatalf("%s, step %d: Next = %+v, Peek/Advance = %+v", name, i, got, want)
			}
		}
		var wa, wb snap.Writer
		a.EncodeState(&wa)
		b.EncodeState(&wb)
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Fatalf("%s: stream states differ after the walk", name)
		}
	}
}

// buildAll builds the twelve benchmark programs of one seed.
func buildAll(seed uint64) {
	for _, name := range bench.Names() {
		prog.Build(bench.MustProfile(name), seed)
	}
}

func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildAll(uint64(i))
	}
}
