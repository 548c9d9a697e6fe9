package dstream

import (
	"fmt"
	"math/rand"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

// everyScalar carries one field of each Scalar-constraint type, covering
// the full set of built-in insertion operators the paper defines "for each
// of the fundamental pC++ types".
type everyScalar struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	S   string
}

func randomScalars(rng *rand.Rand) everyScalar {
	return everyScalar{
		B:   rng.Intn(2) == 0,
		I:   int(rng.Int63()) - (1 << 40),
		I8:  int8(rng.Intn(256) - 128),
		I16: int16(rng.Intn(1<<16) - 1<<15),
		I32: rng.Int31() - (1 << 30),
		I64: rng.Int63() - (1 << 62),
		U8:  uint8(rng.Intn(256)),
		U16: uint16(rng.Intn(1 << 16)),
		U32: rng.Uint32(),
		U64: rng.Uint64(),
		F32: rng.Float32(),
		F64: rng.NormFloat64(),
		S:   fmt.Sprintf("s-%x", rng.Uint64()),
	}
}

// TestEveryScalarFieldRoundTrip drives InsertField/ExtractField through all
// thirteen fundamental types in one record (13 interleaved arrays).
func TestEveryScalarFieldRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	const n = 9
	rng := rand.New(rand.NewSource(77))
	want := make([]everyScalar, n)
	for i := range want {
		want[i] = randomScalars(rng)
	}
	run(t, 3, fs, func(nd *machine.Node) error {
		d := mustDist(t, n, 3, distr.Cyclic, 0)
		c, err := collection.New[everyScalar](nd, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *everyScalar) { *e = want[g] })
		s, err := Open(nd, d, "scalars")
		if err != nil {
			return err
		}
		ins := []func() error{
			func() error { return InsertField(s, c, func(e *everyScalar) bool { return e.B }) },
			func() error { return InsertField(s, c, func(e *everyScalar) int { return e.I }) },
			func() error { return InsertField(s, c, func(e *everyScalar) int8 { return e.I8 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) int16 { return e.I16 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) int32 { return e.I32 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) int64 { return e.I64 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) uint8 { return e.U8 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) uint16 { return e.U16 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) uint32 { return e.U32 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) uint64 { return e.U64 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) float32 { return e.F32 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) float64 { return e.F64 }) },
			func() error { return InsertField(s, c, func(e *everyScalar) string { return e.S }) },
		}
		for _, f := range ins {
			if err := f(); err != nil {
				return err
			}
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}

		back, err := collection.New[everyScalar](nd, d)
		if err != nil {
			return err
		}
		in, err := OpenInput(nd, d, "scalars")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if got := in.Arrays(); got != len(ins) {
			return fmt.Errorf("Arrays = %d, want %d", got, len(ins))
		}
		ext := []func() error{
			func() error { return ExtractField(in, back, func(e *everyScalar) *bool { return &e.B }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *int { return &e.I }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *int8 { return &e.I8 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *int16 { return &e.I16 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *int32 { return &e.I32 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *int64 { return &e.I64 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *uint8 { return &e.U8 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *uint16 { return &e.U16 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *uint32 { return &e.U32 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *uint64 { return &e.U64 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *float32 { return &e.F32 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *float64 { return &e.F64 }) },
			func() error { return ExtractField(in, back, func(e *everyScalar) *string { return &e.S }) },
		}
		for _, f := range ext {
			if err := f(); err != nil {
				return err
			}
		}
		var bad error
		back.Apply(func(g int, e *everyScalar) {
			if *e != want[g] {
				bad = fmt.Errorf("global %d: got %+v want %+v", g, *e, want[g])
			}
		})
		return bad
	})
}

// TestInt64SliceFieldRoundTrip covers the remaining typed slice helper.
func TestInt64SliceFieldRoundTrip(t *testing.T) {
	fs := pfs.NewMemFS(vtime.Challenge())
	type rec struct{ V []int64 }
	run(t, 2, fs, func(nd *machine.Node) error {
		d := mustDist(t, 7, 2, distr.Block, 0)
		c, err := collection.New[rec](nd, d)
		if err != nil {
			return err
		}
		c.Apply(func(g int, e *rec) {
			for i := 0; i <= g; i++ {
				e.V = append(e.V, int64(g*100+i))
			}
		})
		s, err := Open(nd, d, "i64s")
		if err != nil {
			return err
		}
		if err := InsertInt64Slice(s, c, func(e *rec) []int64 { return e.V }); err != nil {
			return err
		}
		if err := s.Write(); err != nil {
			return err
		}
		if err := s.Close(); err != nil {
			return err
		}
		back, err := collection.New[rec](nd, d)
		if err != nil {
			return err
		}
		in, err := OpenInput(nd, d, "i64s")
		if err != nil {
			return err
		}
		defer in.Close()
		if err := in.Read(); err != nil {
			return err
		}
		if err := ExtractInt64Slice(in, back, func(e *rec) *[]int64 { return &e.V }); err != nil {
			return err
		}
		var bad error
		back.Apply(func(g int, e *rec) {
			if len(e.V) != g+1 || (g >= 0 && e.V[g] != int64(g*101)) {
				bad = fmt.Errorf("global %d: %v", g, e.V)
			}
		})
		return bad
	})
}
