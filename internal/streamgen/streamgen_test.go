package streamgen

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

const sample = `package demo

// Position mirrors the paper's Figure 3 declarations.
type Position struct {
	X, Y, Z float64
}

// ParticleList is the element class of the example grid.
type ParticleList struct {
	NumberOfParticles int
	Mass              []float64
	Positions         []Position
	Tag               string
	Active            bool
	Raw               []byte
	Counts            [3]int32
	Next              *ParticleList
	Lookup            map[string]int
}
`

func gen(t *testing.T, src string, opts Options) string {
	t.Helper()
	out, err := Generate([]byte(src), "demo.go", opts)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestGeneratedCodeParses(t *testing.T) {
	out := gen(t, sample, Options{})
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "demo_streams.go", out, 0); err != nil {
		t.Fatalf("generated code does not parse: %v\n%s", err, out)
	}
}

func TestScalarAndSliceFields(t *testing.T) {
	out := gen(t, sample, Options{Types: []string{"ParticleList"}})
	for _, want := range []string{
		"func (v *ParticleList) StreamInsert(e *dstream.Encoder)",
		"func (v *ParticleList) StreamExtract(d *dstream.Decoder)",
		"e.Int64(int64(v.NumberOfParticles))",
		"v.NumberOfParticles = int(d.Int64())",
		"e.Float64Slice(v.Mass)",
		"v.Mass = d.AppendFloat64Slice(v.Mass[:0])",
		"e.String(v.Tag)",
		"e.Bool(v.Active)",
		"e.Bytes32(v.Raw)",
		"v.Raw = d.Bytes32()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n%s", want, out)
		}
	}
}

func TestNestedStructRecursion(t *testing.T) {
	out := gen(t, sample, Options{})
	// Positions is a slice of a struct that itself gets generated methods:
	// a length prefix plus a per-element StreamInsert call.
	for _, want := range []string{
		"e.Uint32(uint32(len(v.Positions)))",
		"x.StreamInsert(e)",
		"func (v *Position) StreamInsert(e *dstream.Encoder)",
		"e.Float64(v.X)",
		"v.Positions = make([]Position, int(d.Uint32()))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n%s", want, out)
		}
	}
}

func TestFixedArray(t *testing.T) {
	out := gen(t, sample, Options{})
	if !strings.Contains(out, "for i := range v.Counts") {
		t.Errorf("fixed array not looped:\n%s", out)
	}
	if strings.Contains(out, "uint32(len(v.Counts))") {
		t.Errorf("fixed array got a length prefix:\n%s", out)
	}
}

// TestPointerAndMapBecomeTODOs: the §4.2 behaviour — pointer-bearing fields
// produce comments for the programmer, not code.
func TestPointerAndMapBecomeTODOs(t *testing.T) {
	out := gen(t, sample, Options{})
	for _, want := range []string{
		"TODO(streamgen): field Next (*ParticleList): pointer field",
		"TODO(streamgen): field Lookup (map[string]int): map field",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing placeholder %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "v.Next.StreamInsert") {
		t.Error("pointer field generated code instead of a TODO")
	}
	// Only a file with a TODO tells its reader to edit it by hand.
	const resolve = "Resolve the TODO(streamgen) comments by hand"
	if !strings.Contains(out, resolve) {
		t.Errorf("header lacks the TODO paragraph:\n%s", out)
	}
	if out := gen(t, sample, Options{Types: []string{"Position"}}); strings.Contains(out, resolve) {
		t.Errorf("TODO-free file carries the TODO paragraph:\n%s", out)
	}
}

func TestTypeFilter(t *testing.T) {
	out := gen(t, sample, Options{Types: []string{"Position"}})
	if strings.Contains(out, "ParticleList") {
		t.Errorf("filter leaked other types:\n%s", out)
	}
	if _, err := Generate([]byte(sample), "demo.go", Options{Types: []string{"NoSuch"}}); err == nil {
		t.Error("filter with no matches succeeded")
	}
}

func TestNoStructsError(t *testing.T) {
	if _, err := Generate([]byte("package p\nvar X int\n"), "p.go", Options{}); err == nil {
		t.Error("file without structs accepted")
	}
	if _, err := Generate([]byte("not go at all"), "p.go", Options{}); err == nil {
		t.Error("unparseable file accepted")
	}
}

func TestCustomImportPath(t *testing.T) {
	out := gen(t, sample, Options{DStreamImport: "example.com/alt/dstream"})
	if !strings.Contains(out, `import dstream "example.com/alt/dstream"`) {
		t.Errorf("custom import not used:\n%s", out)
	}
	// The façade's package is not named dstream; the generated bodies say
	// dstream.Encoder and dstream.Decoder, so the import names it so.
	out = gen(t, sample, Options{DStreamImport: "pcxxstreams"})
	if !strings.Contains(out, `import dstream "pcxxstreams"`) {
		t.Errorf("façade import not aliased to dstream:\n%s", out)
	}
}

// TestRegeneratesSCFSegment: the committed internal/scf/scf_streams.go is
// byte for byte what the generator writes from scf.go's Segment, so the
// declaration is the one source of the codec every workload runs.
func TestRegeneratesSCFSegment(t *testing.T) {
	src, err := os.ReadFile("../scf/scf.go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(src, "scf.go", Options{Types: []string{"Segment"}})
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile("../scf/scf_streams.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, committed) {
		t.Fatalf("internal/scf/scf_streams.go is not what streamgen generates (run go generate ./internal/scf):\n--- committed\n%s\n--- generated\n%s",
			committed, out)
	}
}

func TestEmbeddedField(t *testing.T) {
	src := `package p
type Base struct{ A int64 }
type Derived struct {
	Base
	B float64
}
`
	out := gen(t, src, Options{})
	if !strings.Contains(out, "v.Base.StreamInsert(e)") {
		t.Errorf("embedded field not delegated:\n%s", out)
	}
}

func TestSchemaForSegment(t *testing.T) {
	src, err := os.ReadFile("../scf/scf.go")
	if err != nil {
		t.Fatal(err)
	}
	got, err := SchemaFor(src, "scf.go", "Segment")
	if err != nil {
		t.Fatal(err)
	}
	want := "numberOfParticles:i64,x:f64[],y:f64[],z:f64[],vX:f64[],vY:f64[],vZ:f64[],mass:f64[]"
	if got != want {
		t.Fatalf("schema = %q, want %q", got, want)
	}
	got, err = SchemaFor([]byte("package p\ntype blob struct{ Tag int64; Raw []byte }\n"), "p.go", "blob")
	if want := "tag:i64,raw:bytes"; err != nil || got != want {
		t.Fatalf("schema = %q, %v; want %q", got, err, want)
	}
}

func TestSchemaForRejectsUnsupported(t *testing.T) {
	if _, err := SchemaFor([]byte(sample), "demo.go", "ParticleList"); err == nil {
		t.Fatal("struct with pointer/map fields produced a schema")
	}
	if _, err := SchemaFor([]byte(sample), "demo.go", "NoSuch"); err == nil {
		t.Fatal("missing type produced a schema")
	}
}
