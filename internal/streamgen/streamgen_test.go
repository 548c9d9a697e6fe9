package streamgen

import (
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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

func TestTypeNames(t *testing.T) {
	names, err := TypeNames([]byte(sample), "demo.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "ParticleList" || names[1] != "Position" {
		t.Fatalf("TypeNames = %v", names)
	}
}

func TestCustomImportPath(t *testing.T) {
	out := gen(t, sample, Options{DStreamImport: "example.com/alt/dstream"})
	if !strings.Contains(out, `"example.com/alt/dstream"`) {
		t.Errorf("custom import not used:\n%s", out)
	}
}

// TestRegeneratesSCFSegment: running the generator over the real
// internal/scf source must produce the committed methods — proving they are
// what the tool would generate, as DESIGN.md claims. Both StreamInsert and
// StreamExtract are parsed out of the generated and the committed source,
// their receivers renamed alike, and printed: the two texts must be equal.
func TestRegeneratesSCFSegment(t *testing.T) {
	src, err := os.ReadFile("../scf/scf.go")
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(src, "scf.go", Options{Types: []string{"Segment"}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(out)
	wantInOrder := []string{
		"func (v *Segment) StreamInsert(e *dstream.Encoder)",
		"e.Int64(v.NumberOfParticles)",
		"e.Float64Slice(v.X)",
		"e.Float64Slice(v.Y)",
		"e.Float64Slice(v.Z)",
		"e.Float64Slice(v.VX)",
		"e.Float64Slice(v.VY)",
		"e.Float64Slice(v.VZ)",
		"e.Float64Slice(v.Mass)",
		"func (v *Segment) StreamExtract(d *dstream.Decoder)",
		"v.NumberOfParticles = d.Int64()",
		"v.X = d.AppendFloat64Slice(v.X[:0])",
		"v.Mass = d.AppendFloat64Slice(v.Mass[:0])",
	}
	pos := 0
	for _, w := range wantInOrder {
		i := strings.Index(s[pos:], w)
		if i < 0 {
			t.Fatalf("generated Segment code missing (or out of order) %q\n%s", w, s)
		}
		pos += i
	}
	if strings.Contains(s, "TODO(streamgen): field") {
		t.Fatalf("Segment generation produced TODOs:\n%s", s)
	}
	generated, committed := segmentMethods(t, out), segmentMethods(t, src)
	for _, m := range []string{"StreamInsert", "StreamExtract"} {
		if generated[m] != committed[m] {
			t.Errorf("committed %s is not what streamgen generates:\n--- committed\n%s\n--- generated\n%s",
				m, committed[m], generated[m])
		}
	}
}

// segmentMethods parses src and prints each method of *Segment, doc comment
// dropped and receiver renamed to "recv", keyed by method name.
func segmentMethods(t *testing.T, src []byte) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := map[string]string{}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
			continue
		}
		star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
		if !ok || types.ExprString(star.X) != "Segment" {
			continue
		}
		recv := fd.Recv.List[0].Names[0].Name
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == recv {
				id.Name = "recv"
			}
			return true
		})
		fd.Doc = nil
		var b strings.Builder
		if err := printer.Fprint(&b, fset, fd); err != nil {
			t.Fatal(err)
		}
		methods[fd.Name.Name] = b.String()
	}
	return methods
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

func TestGenerateDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("types.go", "package p\n\ntype A struct{ X int64 }\n")
	write("more.go", "package p\n\ntype B struct{ Y []float64 }\n")
	write("plain.go", "package p\n\nfunc F() {}\n")                 // no structs: skipped
	write("types_test.go", "package p\n\ntype T struct{ Z int }\n") // test file: skipped
	write("old_streams.go", "package p\n")                          // generated: skipped

	written, err := GenerateDir(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(written) != 2 {
		t.Fatalf("wrote %d files (%v), want 2", len(written), written)
	}
	for _, w := range written {
		b, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), "StreamInsert") {
			t.Fatalf("%s lacks generated methods", w)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "plain_streams.go")); !os.IsNotExist(err) {
		t.Fatal("companion generated for struct-free file")
	}
	if _, err := os.Stat(filepath.Join(dir, "types_test_streams.go")); !os.IsNotExist(err) {
		t.Fatal("companion generated for test file")
	}
}

func TestGenerateDirNoMatches(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte("package p\nfunc F(){}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := GenerateDir(dir, Options{}); err == nil {
		t.Fatal("directory without structs accepted")
	}
	if _, err := GenerateDir(filepath.Join(dir, "missing"), Options{}); err == nil {
		t.Fatal("missing directory accepted")
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
}

func TestSchemaForRejectsUnsupported(t *testing.T) {
	if _, err := SchemaFor([]byte(sample), "demo.go", "ParticleList"); err == nil {
		t.Fatal("struct with pointer/map fields produced a schema")
	}
	if _, err := SchemaFor([]byte(sample), "demo.go", "NoSuch"); err == nil {
		t.Fatal("missing type produced a schema")
	}
}
