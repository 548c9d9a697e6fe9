// Package streamgen is the engine of cmd/streamgen, this repository's
// counterpart of the paper's stream-gen tool (§4.2): "a simple tool that
// analyzes pC++ programs and generates the inserter and extractor operators
// for all programmer-defined types. The library can be used without the
// tool but the tool makes the programmer's job easier."
//
// streamgen parses a Go source file and emits StreamInsert/StreamExtract
// methods (dstream.Inserter / dstream.Extractor) for its struct types.
// Exactly as the paper describes for "dynamic types containing pointers",
// fields the generator cannot handle mechanically — raw pointers, maps,
// channels, interfaces — produce comment placeholders "allowing the
// programmer to specify exactly how the pointers should be handled."
package streamgen

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
)

// Options configure generation.
type Options struct {
	// Types restricts generation to the named struct types; empty means
	// every struct type in the file.
	Types []string
	// DStreamImport is the import path of the d/stream package providing
	// Encoder/Decoder, imported under the name dstream. Defaults to
	// "pcxxstreams/internal/dstream".
	DStreamImport string
}

func (o Options) dstreamImport() string {
	if o.DStreamImport == "" {
		return "pcxxstreams/internal/dstream"
	}
	return o.DStreamImport
}

func (o Options) wants(name string) bool {
	if len(o.Types) == 0 {
		return true
	}
	for _, t := range o.Types {
		if t == name {
			return true
		}
	}
	return false
}

// Generate parses src (a Go source file; filename is for diagnostics) and
// returns a gofmt-formatted companion file containing StreamInsert and
// StreamExtract methods for the selected struct types.
func Generate(src []byte, filename string, opts Options) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("streamgen: parse %s: %w", filename, err)
	}

	structs := collectStructs(f, opts)
	if len(structs) == 0 {
		return nil, fmt.Errorf("streamgen: no matching struct types in %s", filename)
	}
	// Struct names in the file define which element types can recurse.
	known := make(map[string]bool)
	for _, s := range structs {
		known[s.name] = true
	}

	var body bytes.Buffer
	for _, s := range structs {
		emitInserter(&body, s, known)
		emitExtractor(&body, s, known)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by streamgen from %s; DO NOT EDIT.\n\n", filepath.Base(filename))
	if bytes.Contains(body.Bytes(), []byte("TODO(streamgen)")) {
		fmt.Fprintf(&b, "// Resolve the TODO(streamgen) comments by hand, as §4.2 of the paper\n")
		fmt.Fprintf(&b, "// prescribes for pointer-bearing types, then remove this header's\n")
		fmt.Fprintf(&b, "// DO NOT EDIT marker.\n\n")
	}
	fmt.Fprintf(&b, "package %s\n\n", f.Name.Name)
	fmt.Fprintf(&b, "import dstream %q\n\n", opts.dstreamImport())
	b.Write(body.Bytes())

	out, err := format.Source(b.Bytes())
	if err != nil {
		return nil, fmt.Errorf("streamgen: generated code does not format (internal bug): %w\n---\n%s", err, b.String())
	}
	return out, nil
}

// SchemaFor derives the cmd/ds2json schema string for one struct type of
// src: the dschema transliteration of the StreamInsert body Generate would
// emit. Only fields with direct dschema equivalents are supported (the
// fundamental scalars, strings, []byte, []float64, []int64); any other field
// shape returns an error, since a partial schema would misread payloads.
func SchemaFor(src []byte, filename, typeName string) (string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, 0)
	if err != nil {
		return "", fmt.Errorf("streamgen: parse %s: %w", filename, err)
	}
	for _, s := range collectStructs(f, Options{Types: []string{typeName}}) {
		var parts []string
		var werr error
		forEachField(s, func(name string, t ast.Expr) {
			if werr != nil {
				return
			}
			st, err := schemaType(t)
			if err != nil {
				werr = fmt.Errorf("streamgen: %s.%s: %w", typeName, name, err)
				return
			}
			parts = append(parts, fmt.Sprintf("%s:%s", lowerFirst(name), st))
		})
		if werr != nil {
			return "", werr
		}
		return strings.Join(parts, ","), nil
	}
	return "", fmt.Errorf("streamgen: no struct %q in %s", typeName, filename)
}

// schemaType maps a field's AST type to its dschema name.
func schemaType(t ast.Expr) (string, error) {
	switch tt := t.(type) {
	case *ast.Ident:
		switch tt.Name {
		case "bool":
			return "bool", nil
		case "int", "int64":
			return "i64", nil
		case "int8", "int16", "int32":
			return "i32", nil
		case "byte", "uint8", "uint16", "uint32":
			return "u32", nil
		case "uint64":
			return "u64", nil
		case "float32":
			return "f32", nil
		case "float64":
			return "f64", nil
		case "string":
			return "str", nil
		}
	case *ast.ArrayType:
		if tt.Len == nil {
			if id, ok := tt.Elt.(*ast.Ident); ok {
				switch id.Name {
				case "byte", "uint8":
					return "bytes", nil
				case "float64":
					return "f64[]", nil
				case "int64":
					return "i64[]", nil
				}
			}
		}
	}
	return "", fmt.Errorf("no dschema equivalent for %s", typeString(t))
}

func lowerFirst(s string) string {
	if s == "" {
		return s
	}
	return strings.ToLower(s[:1]) + s[1:]
}

type structInfo struct {
	name   string
	fields []*ast.Field
}

func collectStructs(f *ast.File, opts Options) []structInfo {
	var out []structInfo
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !opts.wants(ts.Name.Name) {
				continue
			}
			out = append(out, structInfo{name: ts.Name.Name, fields: st.Fields.List})
		}
	}
	return out
}

func emitInserter(b *bytes.Buffer, s structInfo, known map[string]bool) {
	fmt.Fprintf(b, "// StreamInsert implements dstream.Inserter for %s.\n", s.name)
	fmt.Fprintf(b, "func (v *%s) StreamInsert(e *dstream.Encoder) {\n", s.name)
	forEachField(s, func(name string, t ast.Expr) {
		b.WriteString(insertStmt("v."+name, name, t, known, 0))
	})
	fmt.Fprintf(b, "}\n\n")
}

func emitExtractor(b *bytes.Buffer, s structInfo, known map[string]bool) {
	fmt.Fprintf(b, "// StreamExtract implements dstream.Extractor for %s.\n", s.name)
	fmt.Fprintf(b, "func (v *%s) StreamExtract(d *dstream.Decoder) {\n", s.name)
	forEachField(s, func(name string, t ast.Expr) {
		b.WriteString(extractStmt("v."+name, name, t, known, 0))
	})
	fmt.Fprintf(b, "}\n\n")
}

func forEachField(s structInfo, f func(name string, t ast.Expr)) {
	for _, fl := range s.fields {
		if len(fl.Names) == 0 {
			// Embedded field: recurse through the embedded value if it is a
			// plain named type.
			if id, ok := fl.Type.(*ast.Ident); ok {
				f(id.Name, fl.Type)
			} else {
				f("", fl.Type)
			}
			continue
		}
		for _, n := range fl.Names {
			f(n.Name, fl.Type)
		}
	}
}

// scalarOps maps builtin type names to (encoderMethod, needsConvTo, zero).
var scalarOps = map[string][2]string{
	"bool":    {"Bool", ""},
	"int":     {"Int64", "int64"},
	"int8":    {"Int32", "int32"},
	"int16":   {"Int32", "int32"},
	"int32":   {"Int32", ""},
	"int64":   {"Int64", ""},
	"byte":    {"Uint32", "uint32"},
	"uint8":   {"Uint32", "uint32"},
	"uint16":  {"Uint32", "uint32"},
	"uint32":  {"Uint32", ""},
	"uint64":  {"Uint64", ""},
	"float32": {"Float32", ""},
	"float64": {"Float64", ""},
	"string":  {"String", ""},
}

func todo(name string, t ast.Expr, why string) string {
	return fmt.Sprintf("\t// TODO(streamgen): field %s (%s): %s — specify handling by hand.\n",
		name, typeString(t), why)
}

func typeString(t ast.Expr) string {
	var b bytes.Buffer
	if err := format.Node(&b, token.NewFileSet(), t); err != nil {
		return fmt.Sprintf("%T", t)
	}
	return b.String()
}

// insertStmt renders the insertion statement(s) for one field. depth
// uniquifies loop variables for nested composites.
func insertStmt(expr, name string, t ast.Expr, known map[string]bool, depth int) string {
	switch tt := t.(type) {
	case *ast.Ident:
		if op, ok := scalarOps[tt.Name]; ok {
			arg := expr
			if op[1] != "" {
				arg = fmt.Sprintf("%s(%s)", op[1], expr)
			}
			return fmt.Sprintf("\te.%s(%s)\n", op[0], arg)
		}
		if known[tt.Name] {
			return fmt.Sprintf("\t%s.StreamInsert(e)\n", expr)
		}
		// A named type declared elsewhere: assume it carries its own
		// inserter, the same convention the paper's tool relies on.
		return fmt.Sprintf("\t%s.StreamInsert(e)\n", expr)
	case *ast.ArrayType:
		if tt.Len == nil {
			// Variable-sized slice: the paper's `array(p.mass, p.n)` case;
			// the length is stored with the data.
			if id, ok := tt.Elt.(*ast.Ident); ok {
				switch id.Name {
				case "byte", "uint8":
					return fmt.Sprintf("\te.Bytes32(%s)\n", expr)
				case "float64":
					return fmt.Sprintf("\te.Float64Slice(%s)\n", expr)
				case "int64":
					return fmt.Sprintf("\te.Int64Slice(%s)\n", expr)
				}
			}
			it := loopVar("x", depth)
			body := insertStmt(it, name, tt.Elt, known, depth+1)
			if strings.Contains(body, "TODO(streamgen)") {
				return todo(name, t, "element type is not mechanically insertable")
			}
			return fmt.Sprintf("\te.Uint32(uint32(len(%s)))\n\tfor _, %s := range %s {\n\t%s\t}\n",
				expr, it, expr, body)
		}
		// Fixed array: length is part of the type; no prefix.
		it := loopVar("i", depth)
		body := insertStmt(expr+"["+it+"]", name, tt.Elt, known, depth+1)
		if strings.Contains(body, "TODO(streamgen)") {
			return todo(name, t, "element type is not mechanically insertable")
		}
		return fmt.Sprintf("\tfor %s := range %s {\n\t%s\t}\n", it, expr, body)
	case *ast.StarExpr:
		return todo(name, t, "pointer field")
	case *ast.MapType:
		return todo(name, t, "map field")
	case *ast.ChanType:
		return todo(name, t, "channel field")
	case *ast.FuncType:
		return todo(name, t, "function field")
	case *ast.InterfaceType:
		return todo(name, t, "interface field")
	case *ast.SelectorExpr:
		return todo(name, t, "type from another package")
	}
	return todo(name, t, "unsupported type")
}

// extractStmt renders the extraction statement(s) for one field.
func extractStmt(expr, name string, t ast.Expr, known map[string]bool, depth int) string {
	switch tt := t.(type) {
	case *ast.Ident:
		if op, ok := scalarOps[tt.Name]; ok {
			if op[1] != "" {
				return fmt.Sprintf("\t%s = %s(d.%s())\n", expr, tt.Name, op[0])
			}
			return fmt.Sprintf("\t%s = d.%s()\n", expr, op[0])
		}
		return fmt.Sprintf("\t%s.StreamExtract(d)\n", expr)
	case *ast.ArrayType:
		if tt.Len == nil {
			if id, ok := tt.Elt.(*ast.Ident); ok {
				switch id.Name {
				case "byte", "uint8":
					return fmt.Sprintf("\t%s = d.Bytes32()\n", expr)
				case "float64":
					return fmt.Sprintf("\t%s = d.AppendFloat64Slice(%s[:0])\n", expr, expr)
				case "int64":
					return fmt.Sprintf("\t%s = d.AppendInt64Slice(%s[:0])\n", expr, expr)
				}
			}
			it := loopVar("i", depth)
			body := extractStmt(expr+"["+it+"]", name, tt.Elt, known, depth+1)
			if strings.Contains(body, "TODO(streamgen)") {
				return todo(name, t, "element type is not mechanically extractable")
			}
			return fmt.Sprintf("\t%s = make(%s, int(d.Uint32()))\n\tfor %s := range %s {\n\t%s\t}\n",
				expr, typeString(t), it, expr, body)
		}
		it := loopVar("i", depth)
		body := extractStmt(expr+"["+it+"]", name, tt.Elt, known, depth+1)
		if strings.Contains(body, "TODO(streamgen)") {
			return todo(name, t, "element type is not mechanically extractable")
		}
		return fmt.Sprintf("\tfor %s := range %s {\n\t%s\t}\n", it, expr, body)
	case *ast.StarExpr:
		return todo(name, t, "pointer field")
	case *ast.MapType:
		return todo(name, t, "map field")
	case *ast.ChanType:
		return todo(name, t, "channel field")
	case *ast.FuncType:
		return todo(name, t, "function field")
	case *ast.InterfaceType:
		return todo(name, t, "interface field")
	case *ast.SelectorExpr:
		return todo(name, t, "type from another package")
	}
	return todo(name, t, "unsupported type")
}

func loopVar(base string, depth int) string {
	if depth == 0 {
		return base
	}
	return fmt.Sprintf("%s%d", base, depth)
}
