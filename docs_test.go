package pcxxstreams

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"pcxxstreams/internal/bench"
)

// The documents whose every cited name must exist, and the two build files
// whose commands are held to the same names.
var (
	docFiles   = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	buildFiles = []string{"Makefile", ".github/workflows/ci.yml"}
)

// TestDocsCiteWhatExists fails, at the file and line of the citation, on
// any name the documents cite that the tree no longer has: a test, fuzz
// target, benchmark or example (and any -run/-fuzz/-bench regex that matches
// none), a make target or sweep row, a package path, a command flag, or a
// section heading. DESIGN.md states the system as it stands, so it also
// names no pull request or issue.
func TestDocsCiteWhatExists(t *testing.T) {
	w := loadWorld(t)
	for _, f := range docFiles {
		d := readDoc(t, f, false)
		w.checkNames(d)
		w.checkCommands(d)
		w.checkPaths(d)
		w.checkCitations(d)
	}
	for _, f := range buildFiles {
		d := readDoc(t, f, true)
		w.checkCommands(d)
		w.checkPaths(d)
	}
	d := readDoc(t, "DESIGN.md", false)
	for _, m := range historyRE.FindAllStringIndex(d.text, -1) {
		w.t.Errorf("%s: %q: DESIGN.md states the system as it stands; history goes to CHANGES.md or EXPERIMENTS.md", d.at(m[0]), d.text[m[0]:m[1]])
	}
}

// world is what the documents are checked against.
type world struct {
	t         *testing.T
	tests     []string            // Test/Fuzz/Benchmark/Example functions in every _test.go
	rules     map[string]bool     // Makefile targets
	makeVars  map[string]string   // Makefile variable defaults
	rows      map[string]bool     // bench.Sweeps rows, behind `make bench-<row>`
	flags     map[string][]string // command → the flags its cmd/ sources define
	testdata  []string            // every testdata directory
	headings  map[string][]string // DESIGN.md / EXPERIMENTS.md → its headings
	benchRule bool                // the Makefile has the bench-% pattern rule
}

func loadWorld(t *testing.T) *world {
	w := &world{t: t, rules: map[string]bool{}, makeVars: map[string]string{}, rows: map[string]bool{},
		flags: map[string][]string{}, headings: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			if e.Name() == "testdata" {
				w.testdata = append(w.testdata, path)
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && testNameRE.MatchString(fd.Name.Name) {
				w.tests = append(w.tests, fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := makeVarRE.FindStringSubmatch(line); m != nil {
			w.makeVars[m[1]] = strings.TrimSpace(m[2])
		} else if m := makeRuleRE.FindStringSubmatch(line); m != nil {
			for _, r := range strings.Fields(m[1]) {
				w.rules[r] = true
			}
		}
	}
	w.benchRule = w.rules["bench-%"]
	for _, s := range bench.Sweeps(0, "") {
		w.rows[s.Name] = true
	}

	for _, cmd := range commands {
		w.flags[cmd] = []string{"h", "help"}
		files, _ := filepath.Glob(filepath.Join("cmd", cmd, "*.go"))
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if name, ok := flagDefinition(n); ok {
					w.flags[cmd] = append(w.flags[cmd], name)
				}
				return true
			})
		}
	}

	for _, f := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(b), "\n") {
			if h, ok := strings.CutPrefix(line, "#"); ok {
				w.headings[f] = append(w.headings[f], squash(strings.TrimLeft(h, "# ")))
			}
		}
	}
	return w
}

// commands are the programs whose flags the documents may cite, each
// defined by the flag package in cmd/<name>.
var commands = []string{"dstream-bench", "dstreamd", "scf-sim", "dsdump", "ds2json", "streamgen"}

// flagDefinition reports the flag name a flag.String / flag.BoolVar / … call
// defines.
func flagDefinition(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	arg := 0
	switch sel.Sel.Name {
	case "String", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "Duration", "Func", "BoolFunc":
	case "StringVar", "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "Float64Var", "DurationVar", "Var", "TextVar":
		arg = 1
	default:
		return "", false
	}
	if len(call.Args) <= arg {
		return "", false
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// doc is one scanned file: its text, the parts of it that are code —
// fenced-block lines and inline code spans, or every line of a build file —
// and the test-selecting regexes in that code.
type doc struct {
	name    string
	text    string
	code    []segment
	regexes []segment
}

type segment struct {
	off  int
	text string
}

func readDoc(t *testing.T, name string, build bool) *doc {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	d := &doc{name: name, text: string(b)}
	fenced, off := false, 0
	var prose strings.Builder // the text outside fences, offsets kept
	for _, line := range strings.SplitAfter(d.text, "\n") {
		switch {
		case build:
			d.code = append(d.code, segment{off, line})
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
			prose.WriteString(blank(line))
		case fenced:
			d.code = append(d.code, segment{off, line})
			prose.WriteString(blank(line))
		default:
			prose.WriteString(line)
		}
		off += len(line)
	}
	for _, m := range spanRE.FindAllStringIndex(prose.String(), -1) {
		d.code = append(d.code, segment{m[0] + 1, strings.ReplaceAll(d.text[m[0]+1:m[1]-1], "\n", " ")})
	}
	for _, s := range d.code {
		for _, m := range regexArgRE.FindAllStringSubmatchIndex(s.text, -1) {
			for g := 2; g < len(m); g += 2 {
				if m[g] >= 0 {
					d.regexes = append(d.regexes, segment{s.off + m[g], s.text[m[g]:m[g+1]]})
				}
			}
		}
	}
	return d
}

// blank is line with every byte but its newline a space, so offsets into
// the prose stay offsets into the text.
func blank(line string) string {
	body := strings.TrimSuffix(line, "\n")
	return strings.Repeat(" ", len(body)) + line[len(body):]
}

// at renders a byte offset of the document as file:line.
func (d *doc) at(off int) string {
	return d.name + ":" + strconv.Itoa(1+strings.Count(d.text[:off], "\n"))
}

var (
	testNameRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)([A-Z0-9_]\w*)?$`)
	citedRE    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*\*?`)
	spanRE     = regexp.MustCompile("`[^`]+`")
	regexArgRE = regexp.MustCompile(`(?:^|\s)-(?:test\.)?(?:run|fuzz|bench|list)(?:=|\s+)('[^']*'|"[^"]*"|\S+)|\bCHAOS_RUN\s*\??=\s*('[^']*'|\S+)|^\s*run:\s*((?:Test|Fuzz)\S*)\s*$`)
	makeRE     = regexp.MustCompile(`(?:^|[;&|#(:])\s*make\s+(.*)`)
	targetRE   = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	commandRE  = regexp.MustCompile(`(?:^|[^\w-])(dstream-bench|dstreamd|scf-sim|dsdump|ds2json|streamgen)(\s.*)`)
	pathRE     = regexp.MustCompile(`(?:^|[^\w./-])(?:\./|pcxxstreams/)?((?:internal|cmd|examples|scripts)/[\w./-]*)`)
	testdataRE = regexp.MustCompile(`(?:^|[^\w./-])(testdata/[\w./-]*)`)
	citeRE     = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md,?\s+["“]([^"”]+)["”]`)
	historyRE  = regexp.MustCompile(`\b(?:PRs?|ISSUE|Issue)\s+#?\d+`)
	makeVarRE  = regexp.MustCompile(`^([A-Z_]+)\s*[?:]?=\s*(.*)$`)
	makeRuleRE = regexp.MustCompile(`^([\w.%-]+(?:\s+[\w.%-]+)*)\s*:(?:[^=]|$)`)
	shellVarRE = regexp.MustCompile(`\$[\w{(]`)
)

// checkNames: every Test…/Fuzz…/Benchmark…/Example… name is declared in some
// _test.go; one written with * prefixes at least one. A name in <…> is one
// the reader fills in, and a name inside a -run/-fuzz regex is the regex's
// to match (checkRegex).
func (w *world) checkNames(d *doc) {
	for _, m := range citedRE.FindAllStringIndex(d.text, -1) {
		name := d.text[m[0]:m[1]]
		inRegex := slices.ContainsFunc(d.regexes, func(r segment) bool { return r.off <= m[0] && m[0] < r.off+len(r.text) })
		if inRegex || m[0] > 0 && d.text[m[0]-1] == '<' {
			continue
		}
		found := false
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			found = slices.ContainsFunc(w.tests, func(s string) bool { return strings.HasPrefix(s, prefix) })
		} else {
			found = slices.Contains(w.tests, name)
		}
		if !found {
			w.t.Errorf("%s: %s is declared in no _test.go", d.at(m[0]), name)
		}
	}
}

// checkCommands: in code, every -run/-fuzz/-bench regex compiles and matches
// a declared name, every `make` target is a Makefile rule or a sweep row, and
// every flag after a command is one that command defines.
func (w *world) checkCommands(d *doc) {
	for _, r := range d.regexes {
		w.checkRegex(d, r.off, r.text)
	}
	for _, s := range d.code {
		for _, m := range makeRE.FindAllStringSubmatchIndex(s.text, -1) {
			for _, tok := range strings.Fields(s.text[m[2]:m[3]]) {
				if strings.HasPrefix(tok, "-") || strings.Contains(tok, "=") {
					continue
				}
				if !targetRE.MatchString(tok) {
					break
				}
				if !w.target(tok) {
					w.t.Errorf("%s: make %s: no such Makefile rule or bench.Sweeps row", d.at(s.off+m[0]), tok)
				}
			}
		}
		for _, m := range commandRE.FindAllStringSubmatchIndex(s.text, -1) {
			cmd := s.text[m[2]:m[3]]
			for _, tok := range strings.Fields(s.text[m[4]:m[5]]) {
				if tok == "|" || tok == ";" || tok == "&&" || tok == "||" || strings.HasPrefix(tok, "#") || strings.HasPrefix(tok, ">") {
					break
				}
				tok = strings.Trim(tok, "[](),;:`'\"")
				if len(tok) < 2 || tok[0] != '-' || !isLetter(strings.TrimLeft(tok, "-")) {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				if !slices.Contains(w.flags[cmd], name) {
					w.t.Errorf("%s: %s -%s: cmd/%s defines no such flag", d.at(s.off+m[2]), cmd, name, cmd)
				}
			}
		}
	}
}

func isLetter(s string) bool { return s != "" && s[0] >= 'a' && s[0] <= 'z' }

// target reports whether `make t` names something the Makefile builds.
func (w *world) target(t string) bool {
	if w.rules[t] {
		return true
	}
	row, ok := strings.CutPrefix(t, "bench-")
	return ok && w.benchRule && w.rows[row]
}

// checkRegex: a test-selecting regex compiles and matches at least one
// declared name, after Makefile variables are filled in. A regex that
// matches the empty string (-run '^$') selects nothing on purpose; one
// still holding a shell variable is not checked.
func (w *world) checkRegex(d *doc, off int, arg string) {
	arg = strings.Trim(arg, `'"`)
	if d.name == "Makefile" {
		for k, v := range w.makeVars {
			arg = strings.ReplaceAll(arg, "$("+k+")", v)
		}
		if shellVarRE.MatchString(strings.ReplaceAll(arg, "$$", "")) {
			return
		}
		arg = strings.ReplaceAll(arg, "$$", "$")
	}
	if arg == "" || shellVarRE.MatchString(arg) || strings.ContainsAny(arg, "<>") {
		return
	}
	top, _, _ := strings.Cut(arg, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		w.t.Errorf("%s: regex %q: %v", d.at(off), arg, err)
		return
	}
	if !re.MatchString("") && !slices.ContainsFunc(w.tests, re.MatchString) {
		w.t.Errorf("%s: regex %q matches no declared test", d.at(off), arg)
	}
}

// checkPaths: an internal/, cmd/, examples/ or scripts/ path exists, or is a
// package path followed by .Symbol; a bare testdata/ path exists under some
// package.
func (w *world) checkPaths(d *doc) {
	for _, m := range pathRE.FindAllStringSubmatchIndex(d.text, -1) {
		p := strings.TrimRight(d.text[m[2]:m[3]], "./-")
		if exists(p) {
			continue
		}
		if i := strings.LastIndex(p, "."); i > strings.LastIndex(p, "/") && isDir(p[:i]) {
			continue
		}
		w.t.Errorf("%s: %s does not exist", d.at(m[2]), p)
	}
	for _, m := range testdataRE.FindAllStringSubmatchIndex(d.text, -1) {
		p := strings.TrimRight(d.text[m[2]:m[3]], "./-")
		rest := strings.TrimPrefix(p, "testdata")
		if !slices.ContainsFunc(w.testdata, func(dir string) bool { return exists(dir + rest) }) {
			w.t.Errorf("%s: %s exists under no package", d.at(m[2]), p)
		}
	}
}

func exists(p string) bool { _, err := os.Stat(p); return err == nil }

func isDir(p string) bool { st, err := os.Stat(p); return err == nil && st.IsDir() }

// checkCitations: a DESIGN.md "Heading" or EXPERIMENTS.md "Heading" citation
// is a heading of that file, or the start of one.
func (w *world) checkCitations(d *doc) {
	for _, m := range citeRE.FindAllStringSubmatchIndex(d.text, -1) {
		file := d.text[m[2]:m[3]] + ".md"
		cited := strings.TrimRight(squash(d.text[m[4]:m[5]]), "…. ")
		if !slices.ContainsFunc(w.headings[file], func(h string) bool { return strings.HasPrefix(h, cited) }) {
			w.t.Errorf("%s: %s has no heading %q", d.at(m[0]), file, cited)
		}
	}
}

// squash collapses every run of white space to one blank.
func squash(s string) string { return strings.Join(strings.Fields(s), " ") }
