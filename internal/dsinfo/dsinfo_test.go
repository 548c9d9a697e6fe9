package dsinfo

import (
	"encoding/binary"
	"strings"
	"testing"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/enc"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/pfs"
	"pcxxstreams/internal/vtime"
)

type elem struct{ V []float64 }

func (e *elem) StreamInsert(enc *dstream.Encoder)  { enc.Float64Slice(e.V) }
func (e *elem) StreamExtract(dec *dstream.Decoder) { e.V = dec.Float64Slice() }

// writeSample produces a two-record CYCLIC d/stream file and returns its image.
func writeSample(t testing.TB, nprocs, n int) []byte {
	t.Helper()
	return writeSampleDist(t, nprocs, func() (*distr.Distribution, error) { return distr.New(n, nprocs, distr.Cyclic, 0) })
}

// writeSampleDist is writeSample under the distribution mk builds, through
// whatever stream options are given.
func writeSampleDist(t testing.TB, nprocs int, mk func() (*distr.Distribution, error), opts ...dstream.Option) []byte {
	t.Helper()
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err := machine.Run(machine.Config{NProcs: nprocs, Profile: vtime.Challenge(), FS: fs},
		func(nd *machine.Node) error {
			d, err := mk()
			if err != nil {
				return err
			}
			c, err := collection.New[elem](nd, d)
			if err != nil {
				return err
			}
			c.Apply(func(g int, e *elem) { e.V = make([]float64, g%5) })
			s, err := dstream.Open(nd, d, "f", opts...)
			if err != nil {
				return err
			}
			defer s.Close()
			if err := dstream.Insert[elem](s, c); err != nil {
				return err
			}
			if err := s.Write(); err != nil {
				return err
			}
			// Second record: two interleaved inserts.
			if err := dstream.Insert[elem](s, c); err != nil {
				return err
			}
			if err := dstream.Insert[elem](s, c); err != nil {
				return err
			}
			return s.Write()
		})
	if err != nil {
		t.Fatal(err)
	}
	img, err := fs.Image("f")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// explicitSample is writeSample under an EXPLICIT distribution (owner table
// as the record's descriptor section).
func explicitSample(t testing.TB, nprocs, n int) []byte {
	return writeSampleDist(t, nprocs, func() (*distr.Distribution, error) {
		owners := make([]int, n)
		for i := range owners {
			owners[i] = (i / 2) % nprocs
		}
		return distr.NewExplicit(owners, nprocs)
	})
}

// streamWalk reads img the way an input d/stream does, on one rank: a first
// pass peeks every record's element count and skips it (header only); then,
// per distinct count, a stream of that many elements Reads the records that
// match — front matter and data — and skips the others. nil means the stream
// found nothing wrong anywhere in the file.
func streamWalk(img []byte) error {
	fs := pfs.NewMemFS(vtime.Challenge())
	_, err := machine.Run(machine.Config{NProcs: 1, Profile: vtime.Challenge(), FS: fs}, func(nd *machine.Node) error {
		f, err := nd.Open("f", true)
		if err != nil {
			return err
		}
		if err := f.WriteAt(img, 0); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		pass := func(n int, visit func(s *dstream.IStream, elems int) error) error {
			d, err := distr.New(n, 1, distr.Block, 0)
			if err != nil {
				return err
			}
			s, err := dstream.OpenInput(nd, d, "f")
			if err != nil {
				return err
			}
			defer s.Close()
			for s.More() {
				elems, err := s.NextElems()
				if err != nil {
					return err
				}
				if err := visit(s, elems); err != nil {
					return err
				}
			}
			return nil
		}
		counts := map[int]bool{}
		if err := pass(0, func(s *dstream.IStream, elems int) error {
			counts[elems] = true
			return s.Skip()
		}); err != nil {
			return err
		}
		for n := range counts {
			if err := pass(n, func(s *dstream.IStream, elems int) error {
				if elems != n {
					return s.Skip()
				}
				return s.Read()
			}); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

func TestParseWellFormedFile(t *testing.T) {
	img := writeSample(t, 3, 10)
	info, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != int64(len(img)) {
		t.Fatalf("Bytes = %d, want %d", info.Bytes, len(img))
	}
	if len(info.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(info.Records))
	}
	r0, r1 := &info.Records[0], &info.Records[1]
	if r0.Header.NArrays != 1 || r1.Header.NArrays != 2 {
		t.Fatalf("NArrays = %d, %d; want 1, 2", r0.Header.NArrays, r1.Header.NArrays)
	}
	if r0.Dist.N != 10 || r0.Dist.NProcs != 3 || r0.Dist.Mode != distr.Cyclic {
		t.Fatalf("record 0 dist = %v", r0.Dist)
	}
	// Record 1 interleaves the same data twice: exactly double the bytes.
	if r1.TotalBytes() != 2*r0.TotalBytes() {
		t.Fatalf("record 1 bytes %d, want 2× record 0's %d", r1.TotalBytes(), r0.TotalBytes())
	}
	// Element sizes vary (g%5 floats, length-prefixed).
	if r0.MinSize() == r0.MaxSize() {
		t.Fatalf("expected variable element sizes, got uniform %d", r0.MinSize())
	}
	if r0.Index != 0 || r1.Index != 1 {
		t.Fatalf("indices %d, %d", r0.Index, r1.Index)
	}
}

func TestElementRange(t *testing.T) {
	img := writeSample(t, 2, 6)
	info, err := Parse(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := &info.Records[0]
	// Ranges tile the data section exactly.
	off := rec.DataOffset
	for i := range rec.Sizes {
		got, n, err := rec.ElementRange(i)
		if err != nil {
			t.Fatal(err)
		}
		if got != off || n != int(rec.Sizes[i]) {
			t.Fatalf("elem %d range (%d,%d), want (%d,%d)", i, got, n, off, rec.Sizes[i])
		}
		off += int64(n)
	}
	if off != rec.DataOffset+int64(rec.Header.DataBytes) {
		t.Fatalf("ranges end at %d, want %d", off, rec.DataOffset+int64(rec.Header.DataBytes))
	}
	if _, _, err := rec.ElementRange(-1); err == nil {
		t.Fatal("negative element accepted")
	}
	if _, _, err := rec.ElementRange(len(rec.Sizes)); err == nil {
		t.Fatal("out-of-range element accepted")
	}
}

// Where the fields the corruption rows patch sit in a record header.
const (
	hdrNElemsOff    = 8
	hdrNProcsOff    = 12
	hdrModeOff      = 16
	hdrDescBytesOff = 36
	hdrDataBytesOff = 40
)

// TestParseRejectsCorruption: what Parse refuses an input stream refuses, and
// — where the fault is in a record's front matter, which has one reader — in
// the same words. The rows are the union of what either reader used to check.
func TestParseRejectsCorruption(t *testing.T) {
	cyclic := writeSample(t, 2, 6)
	explicit := explicitSample(t, 2, 6)
	rec := enc.FileHeaderLen // the first record's header
	patch := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}

	cases := []struct {
		name    string
		img     []byte
		mutate  func([]byte) []byte
		wantSub string // of Parse's error
		same    bool   // the stream must refuse it in the same words
	}{
		{"bad file magic", cyclic, func(b []byte) []byte { b[0] = 'X'; return b }, "not a d/stream file", true},
		{"truncated header", cyclic, func(b []byte) []byte { return b[:enc.FileHeaderLen+10] }, "truncated", false},
		{"bad record magic", cyclic, func(b []byte) []byte { b[enc.FileHeaderLen] ^= 0xFF; return b }, "record", true},
		{"trailing bytes", cyclic, func(b []byte) []byte { return append(b, 0xAB) }, "truncated header", false},
		{"truncated data", cyclic, func(b []byte) []byte { return b[:len(b)-3] }, "truncated", true},
		{"lying size table", cyclic, func(b []byte) []byte { b[rec+enc.RecordHeaderLen]++; return b }, "size table sums", true},
		{"stray descriptor on a pattern distribution", cyclic, patch(rec+hdrDescBytesOff, 4), "has a 4-byte descriptor, its distribution takes 0", true},
		{"2 GiB descriptor", cyclic, patch(rec+hdrDescBytesOff, 0x7ffffff0), "past the end of the file", true},
		{"explicit descriptor one owner long", explicit, patch(rec+hdrDescBytesOff, 4*6+4), "descriptor", true},
		{"explicit descriptor missing", explicit, patch(rec+hdrDescBytesOff, 0), "descriptor", true},
		{"explicit owner out of range", explicit, patch(rec+enc.RecordHeaderLen, 2), "invalid distribution", true},
		{"data section past the end", cyclic, patch(rec+hdrDataBytesOff, 1<<30), "past the end of the file", true},
		{"mode past one byte", cyclic, patch(rec+hdrModeOff, 0x0100), "mode", true},
		{"unknown mode", cyclic, patch(rec+hdrModeOff, 9), "unknown mode", true},
		{"zero writer procs", cyclic, patch(rec+hdrNProcsOff, 0), "writer procs", true},
		{"four billion writer procs", cyclic, patch(rec+hdrNProcsOff, 0xffffffff), "writer procs", true},
		{"element count the file cannot hold", cyclic, patch(rec+hdrNElemsOff, 0x40000000), "past the end of the file", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			img := c.mutate(append([]byte{}, c.img...))
			_, perr := Parse(img)
			if perr == nil || !strings.Contains(perr.Error(), c.wantSub) {
				t.Fatalf("Parse: err = %v, want substring %q", perr, c.wantSub)
			}
			serr := streamWalk(img)
			if serr == nil {
				t.Fatalf("an input stream accepted what Parse refuses (%v)", perr)
			}
			if !c.same {
				return // a short file: the stream's read fails where Parse counts bytes
			}
			// The shared reader's message is the tail of both errors.
			if msg := perr.Error()[strings.Index(perr.Error(), "enc: "):]; !strings.HasSuffix(serr.Error(), msg) {
				t.Fatalf("the readers disagree:\n  Parse:  %v\n  stream: %v", perr, serr)
			}
		})
	}
	for name, img := range map[string][]byte{"cyclic": cyclic, "explicit": explicit} {
		if _, err := Parse(img); err != nil {
			t.Fatalf("%s sample: Parse: %v", name, err)
		}
		if err := streamWalk(img); err != nil {
			t.Fatalf("%s sample: input stream: %v", name, err)
		}
	}
}

func TestParseRejectsLyingSizeTable(t *testing.T) {
	img := writeSample(t, 2, 6)
	// Inflate the first element's size entry: sums no longer match header.
	off := enc.FileHeaderLen + enc.RecordHeaderLen
	img[off]++
	if _, err := Parse(img); err == nil || !strings.Contains(err.Error(), "size table sums") {
		t.Fatalf("err = %v, want size-table mismatch", err)
	}
}

func TestParseEmptyFileWithHeaderOnly(t *testing.T) {
	info, err := Parse(enc.EncodeFileHeader())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Records) != 0 {
		t.Fatalf("records = %d", len(info.Records))
	}
}

func TestMinSizeEmptyRecord(t *testing.T) {
	r := Record{}
	if r.MinSize() != 0 || r.MaxSize() != 0 || r.TotalBytes() != 0 {
		t.Fatal("empty record stats nonzero")
	}
}
