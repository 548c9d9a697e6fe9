package pcxxstreams

// End-to-end tests of the command-line tools: each binary is built once
// with the host toolchain and driven through its primary workflow against
// real files, the way a downstream user would run it.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// buildTools compiles every cmd/ and examples/ binary into one directory
// (no names clash) once per test process.
func buildTools(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		buildDir, buildErr = os.MkdirTemp("", "pcxx-cli-")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", buildDir+string(os.PathSeparator), "./cmd/...", "./examples/...")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = err
			buildDir = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building tools: %v\n%s", buildErr, buildDir)
	}
	return buildDir
}

func runTool(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(buildTools(t), name)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

// TestCLIWorkflow drives the full tool chain: scf-sim produces frames and
// checkpoints on disk; dsdump inspects a frame; streamgen derives the
// Segment schema; ds2json exports the frame with it; scf-sim resumes from
// the checkpoint on a different node count.
func TestCLIWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()

	// 1. Simulate: 20 steps, frame at 10 and 20, checkpoint at 10 and 20.
	out := runTool(t, "scf-sim",
		"-procs", "4", "-segments", "16", "-particles", "6",
		"-steps", "20", "-save-every", "10", "-checkpoint-every", "10",
		"-dir", dir, "-platform", "challenge")
	if !strings.Contains(out, "final state fingerprint:") {
		t.Fatalf("scf-sim output missing fingerprint:\n%s", out)
	}
	fingerprint := out[strings.Index(out, "final state fingerprint:"):]
	frame := filepath.Join(dir, "particles.0020")
	if _, err := os.Stat(frame); err != nil {
		t.Fatalf("frame not written: %v", err)
	}

	// 2. Inspect the frame.
	out = runTool(t, "dsdump", frame)
	if !strings.Contains(out, "d/stream file") || !strings.Contains(out, "CYCLIC(n=16,p=4)") {
		t.Fatalf("dsdump output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "1 record(s), no trailing bytes") {
		t.Fatalf("dsdump did not validate the frame:\n%s", out)
	}

	// 3. Derive the schema from the real source, then export to JSON.
	schema := strings.TrimSpace(runTool(t, "streamgen", "-schema", "Segment", "internal/scf/scf.go"))
	if !strings.HasPrefix(schema, "numberOfParticles:i64,") {
		t.Fatalf("streamgen schema = %q", schema)
	}
	jsonOut := runTool(t, "ds2json", "-schema", schema, frame)
	lines := strings.Split(strings.TrimSpace(jsonOut), "\n")
	if len(lines) != 16 {
		t.Fatalf("ds2json emitted %d lines, want 16", len(lines))
	}
	var first struct {
		Record int            `json:"record"`
		Global int            `json:"global"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("ds2json line not JSON: %v\n%s", err, lines[0])
	}
	if first.Fields["numberOfParticles"] != float64(6) {
		t.Fatalf("exported particle count = %v", first.Fields["numberOfParticles"])
	}

	// 4. Resume on a different node count: with no remaining steps, the
	// fingerprint must match the original run exactly.
	out = runTool(t, "scf-sim",
		"-procs", "6", "-segments", "16", "-particles", "6",
		"-steps", "20", "-save-every", "0", "-checkpoint-every", "10",
		"-dir", dir, "-platform", "challenge", "-resume")
	if !strings.Contains(out, "resumed from checkpoint at step 20") {
		t.Fatalf("resume output:\n%s", out)
	}
	if !strings.Contains(out, fingerprint[:strings.IndexByte(fingerprint, '\n')]) {
		t.Fatalf("resume fingerprint differs:\noriginal %q\nresume output:\n%s", fingerprint, out)
	}
}

// TestCLIBench regenerates one table and the gantt view through the binary.
func TestCLIBench(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	out := runTool(t, "dstream-bench", "-table", "4")
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "shape criteria: OK") {
		t.Fatalf("dstream-bench table output:\n%s", out)
	}
	out = runTool(t, "dstream-bench", "-gantt", "-variant", "manual")
	if !strings.Contains(out, "node  0 |") {
		t.Fatalf("gantt output:\n%s", out)
	}
	// A misspelt variant is rejected with the valid names, not measured as
	// the unbuffered baseline under the misspelt header.
	bad, err := exec.Command(filepath.Join(buildTools(t), "dstream-bench"), "-gantt", "-variant", "stream").CombinedOutput()
	if err == nil || !strings.Contains(string(bad), `unknown variant "stream" (want unbuffered|manual|streams)`) {
		t.Fatalf("dstream-bench -variant stream: err %v, output:\n%s", err, bad)
	}
	// So is an unknown sweep — the deleted twophase row, whose grid is the
	// planner row's write cells, included: the names come from the table, not
	// the flag's help text.
	bad, err = exec.Command(filepath.Join(buildTools(t), "dstream-bench"), "-sweep", "twophase").CombinedOutput()
	if err == nil || !strings.Contains(string(bad), `unknown sweep "twophase" (want planner|readahead|critpath|pipeline|scale|alloc)`) {
		t.Fatalf("dstream-bench -sweep twophase: err %v, output:\n%s", err, bad)
	}
}

// TestCLIStreamgenGenerate runs the generator over a scratch file and
// checks the companion compiles-shaped output lands next to it.
func TestCLIStreamgenGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "types.go")
	if err := os.WriteFile(src, []byte("package p\n\ntype Point struct {\n\tID int64\n\tXs []float64\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runTool(t, "streamgen", src)
	gen, err := os.ReadFile(filepath.Join(dir, "types_streams.go"))
	if err != nil {
		t.Fatalf("companion not written: %v", err)
	}
	for _, want := range []string{"func (v *Point) StreamInsert", "e.Float64Slice(v.Xs)"} {
		if !strings.Contains(string(gen), want) {
			t.Fatalf("generated code missing %q:\n%s", want, gen)
		}
	}
}

// TestExamplesRun runs every example program; each checks its own round
// trip and exits non-zero when its data does not read back, so this runs the
// examples' generated codecs.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin, dir := buildTools(t), t.TempDir()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cmd := exec.Command(filepath.Join(bin, e.Name()))
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("examples/%s: %v\n%s", e.Name(), err, out)
		}
	}
}
