package pcxxstreams

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api_surface.golden from the current source")

const goldenPath = "testdata/api_surface.golden"

// publicSurface renders the public API from source in two parts. The first
// is the exported declarations of the pcxxstreams façade: files in sorted
// order, unexported declarations and function bodies stripped, comments
// ignored. The second is what those declarations make public in turn: the
// exported methods, with signatures, and the exported fields of every named
// type of this module that an exported façade name reaches (see
// reachableMembers). The rendering is deterministic, so a byte-diff against
// the golden file is exactly an API diff.
func publicSurface(t *testing.T) []byte {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs["pcxxstreams"]
	if pkg == nil {
		t.Fatalf("package pcxxstreams not found in %v", pkgs)
	}

	names := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, len(names))
	for i, name := range names {
		files[i] = pkg.Files[name]
	}
	// Type-check before PackageExports strips the unexported declarations.
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("pcxxstreams", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	ast.PackageExports(pkg)

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "// Public API surface of package pcxxstreams.\n")
	fmt.Fprintf(&buf, "// Regenerate with: go test . -run TestAPISurface -update\n\n")
	cfg := printer.Config{Mode: printer.TabIndent, Tabwidth: 8}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				if len(d.Specs) == 0 {
					continue
				}
			case *ast.FuncDecl:
				d.Body = nil // surface, not implementation
			}
			if err := cfg.Fprint(&buf, fset, d); err != nil {
				t.Fatal(err)
			}
			buf.WriteString("\n\n")
		}
	}

	fmt.Fprintf(&buf, "// Reachable from the declarations above: the exported methods and fields\n")
	fmt.Fprintf(&buf, "// of every type of this module they lead to.\n\n")
	for _, line := range reachableMembers(tpkg) {
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// reachableMembers walks every named type of this module that an exported
// name of pkg reaches — through aliases, parameters, results, type
// arguments and constraints, exported fields, embedded types and interface
// methods, and the signatures of the exported methods it finds — and
// renders each type's exported methods and fields, one per line, grouped by
// type in sorted order and sorted within a type. Types of other modules and
// of the standard library end the walk; their own methods are not listed.
func reachableMembers(pkg *types.Package) []string {
	module := pkg.Path()
	qual := func(p *types.Package) string { return p.Name() }
	seen := map[*types.Named]bool{}
	members := map[string][]string{}

	var walk func(types.Type)
	walkTuple := func(tup *types.Tuple) {
		for i := 0; i < tup.Len(); i++ {
			walk(tup.At(i).Type())
		}
	}
	walk = func(typ types.Type) {
		switch typ := typ.(type) {
		case *types.Alias:
			walk(types.Unalias(typ))
		case *types.Basic:
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Tuple:
			walkTuple(typ)
		case *types.Signature:
			if tps := typ.TypeParams(); tps != nil {
				for i := 0; i < tps.Len(); i++ {
					walk(tps.At(i).Constraint())
				}
			}
			walkTuple(typ.Params())
			walkTuple(typ.Results())
		case *types.TypeParam:
			walk(typ.Constraint())
		case *types.Union:
			for i := 0; i < typ.Len(); i++ {
				walk(typ.Term(i).Type())
			}
		case *types.Struct:
			for i := 0; i < typ.NumFields(); i++ {
				if f := typ.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < typ.NumEmbeddeds(); i++ {
				walk(typ.EmbeddedType(i))
			}
			for i := 0; i < typ.NumExplicitMethods(); i++ {
				if m := typ.ExplicitMethod(i); m.Exported() {
					walk(m.Type())
				}
			}
		case *types.Named:
			if targs := typ.TypeArgs(); targs != nil {
				for i := 0; i < targs.Len(); i++ {
					walk(targs.At(i))
				}
			}
			named := typ.Origin()
			obj := named.Obj()
			if obj.Pkg() == nil || seen[named] ||
				(obj.Pkg().Path() != module && !strings.HasPrefix(obj.Pkg().Path(), module+"/")) {
				return
			}
			seen[named] = true
			key := types.TypeString(named, qual)
			var lines []string
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						kind := "field "
						if f.Embedded() {
							kind = "embedded field "
						}
						lines = append(lines, kind+key+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
					}
				}
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() {
						lines = append(lines, types.ObjectString(m, qual))
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					lines = append(lines, types.ObjectString(m, qual))
					walk(m.Type())
				}
			}
			sort.Strings(lines)
			members[key] = lines
			walk(named.Underlying())
		default:
			panic(fmt.Sprintf("reachableMembers: unhandled type %T", typ))
		}
	}

	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() {
			walk(obj.Type())
		}
	}

	keys := make([]string, 0, len(members))
	for k := range members {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		out = append(out, members[k]...)
	}
	return out
}

// TestAPISurface diffs the public API against the committed golden file, so
// accidental API breaks (or silent additions) fail make check. On an
// intentional change, regenerate with -update and review the diff in code
// review like any other contract change.
func TestAPISurface(t *testing.T) {
	got := publicSurface(t)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with: go test . -run TestAPISurface -update", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	removed, added := lineDiff(string(want), string(got))
	var msg strings.Builder
	msg.WriteString("public API surface changed\n")
	for _, l := range removed {
		fmt.Fprintf(&msg, "  only in golden:  %q\n", l)
	}
	for _, l := range added {
		fmt.Fprintf(&msg, "  only in current: %q\n", l)
	}
	if len(removed)+len(added) == 0 {
		msg.WriteString("  (the same lines in another order)\n")
	}
	msg.WriteString("If intentional, regenerate with: go test . -run TestAPISurface -update")
	t.Fatal(msg.String())
}

// lineDiff returns the lines of want that got lacks and the lines of got
// that want lacks, counting repeats, each in its file's order. Blank lines
// are left out: they separate declarations and name none.
func lineDiff(want, got string) (removed, added []string) {
	count := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
		} else if l != "" {
			removed = append(removed, l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 && l != "" {
			count[l]--
			added = append(added, l)
		}
	}
	return removed, added
}
