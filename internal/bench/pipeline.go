package bench

import (
	"fmt"
	"hash/fnv"
	"io"

	"pcxxstreams/internal/collection"
	"pcxxstreams/internal/distr"
	"pcxxstreams/internal/dstream"
	"pcxxstreams/internal/machine"
	"pcxxstreams/internal/vtime"
)

// PipelinePoint is one cell of the pipeline-vs-file grid: the same M-producer
// N-consumer record hand-off timed through a persistent stream-to-stream
// channel and through the file system (write every record, then read every
// record). Speedup is FileSeconds/PipelineSeconds; BytesMatch asserts the
// consumers extracted byte-identical payloads on both paths (per-rank FNV
// over every record's elements in global order).
type PipelinePoint struct {
	Platform         string  `json:"platform"`
	Producers        int     `json:"producers"`
	Consumers        int     `json:"consumers"`
	Elems            int     `json:"elems"`
	ElemBytes        int     `json:"elem_bytes"`
	Records          int     `json:"records"`
	ComputePerRecord float64 `json:"compute_per_record_seconds"`
	PipelineSeconds  float64 `json:"pipeline_seconds"`
	FileSeconds      float64 `json:"file_seconds"`
	Speedup          float64 `json:"speedup"`
	BytesMatch       bool    `json:"bytes_match"`
}

//go:generate go run pcxxstreams/cmd/streamgen -types blob pipeline.go

// blob is the grid's element: an opaque payload whose bytes are a pure
// function of (global index, record, size), so both paths can be verified
// against the generator and hashed for cross-path identity. Its codec is
// generated into pipeline_streams.go.
type blob struct{ data []byte }

func fillBlob(b *blob, g, rec, size int) {
	if cap(b.data) < size {
		b.data = make([]byte, size)
	}
	b.data = b.data[:size]
	for i := range b.data {
		b.data[i] = byte(g*31 + rec*7 + i)
	}
}

// consumerHasher folds one extracted record into a consumer rank's running
// digest, walking the rank's local elements in global order so the digest is
// a pure function of the consumed bytes.
type consumerHasher struct {
	sum uint64
}

func (h *consumerHasher) fold(rec int, d *distr.Distribution, rank int, local []blob) {
	f := fnv.New64a()
	var hdr [12]byte
	for l := range local {
		g := d.GlobalIndex(rank, l)
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(rec), byte(rec>>8), byte(rec>>16), byte(rec>>24)
		hdr[4], hdr[5], hdr[6], hdr[7] = byte(g), byte(g>>8), byte(g>>16), byte(g>>24)
		n := len(local[l].data)
		hdr[8], hdr[9], hdr[10], hdr[11] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
		f.Write(hdr[:])
		f.Write(local[l].data)
	}
	h.sum = h.sum*1099511628211 ^ f.Sum64()
}

// verifyBlobs checks one record against the generator.
func verifyBlobs(rec int, d *distr.Distribution, rank int, local []blob) error {
	var want blob
	for l := range local {
		g := d.GlobalIndex(rank, l)
		fillBlob(&want, g, rec, len(local[l].data))
		if string(local[l].data) != string(want.data) {
			return fmt.Errorf("bench: record %d element %d differs from generator", rec, g)
		}
	}
	return nil
}

// on runs body on the cell's machine, one rank per producer and consumer,
// behind a barrier and a clock reset, and returns the makespan. dProd and
// dCons are the layouts of the two ends over their own rank counts.
func (pt PipelinePoint) on(body func(node *machine.Node, dProd, dCons *distr.Distribution) error) (float64, error) {
	prof, ok := vtime.ByName(pt.Platform)
	if !ok {
		return 0, fmt.Errorf("bench: unknown platform %q", pt.Platform)
	}
	dProd, err := distr.New(pt.Elems, pt.Producers, distr.Block, 0)
	if err != nil {
		return 0, err
	}
	dCons, err := distr.New(pt.Elems, pt.Consumers, distr.Cyclic, 0)
	if err != nil {
		return 0, err
	}
	r := Run{Profile: prof, NProcs: pt.Producers + pt.Consumers}
	res, err := r.on(r.fs(), func(node *machine.Node) error {
		if err := node.Comm().Barrier(); err != nil {
			return err
		}
		node.Clock().Reset()
		return body(node, dProd, dCons)
	})
	return res.Elapsed, err
}

// pipelineSeconds runs the channel path of the cell: producers write its
// records into a channel, consumers read, verify, and spend its compute
// seconds per record. Returns the makespan and fills hashes[slot] with each
// consumer's digest.
func pipelineSeconds(pt PipelinePoint, hashes []uint64) (float64, error) {
	m, n, records := pt.Producers, pt.Consumers, pt.Records
	p := m + n
	secs, err := pt.on(
		func(node *machine.Node, dProd, dCons *distr.Distribution) error {
			rank := node.Rank()
			if rank < m {
				s, err := dstream.OpenChannel(node, dProd, dCons, "pipe")
				if err != nil {
					return err
				}
				local := make([]blob, s.LocalLen())
				for rec := 0; rec < records; rec++ {
					for l := range local {
						fillBlob(&local[l], dProd.GlobalIndex(rank, l), rec, pt.ElemBytes)
					}
					if err := dstream.InsertElems[blob](s, local); err != nil {
						return err
					}
					if err := s.Write(); err != nil {
						return err
					}
				}
				return s.Close()
			}
			r, err := dstream.OpenChannelInput(node, dCons, dProd, "pipe")
			if err != nil {
				return err
			}
			slot := rank - (p - n)
			local := make([]blob, r.LocalLen())
			var h consumerHasher
			for rec := 0; rec < records; rec++ {
				if err := r.Read(); err != nil {
					return err
				}
				if err := dstream.ExtractElems[blob](r, local); err != nil {
					return err
				}
				if err := verifyBlobs(rec, dCons, slot, local); err != nil {
					return err
				}
				h.fold(rec, dCons, slot, local)
				node.Compute(pt.ComputePerRecord)
			}
			hashes[slot] = h.sum
			return r.Close()
		})
	if err != nil {
		return 0, fmt.Errorf("bench: pipeline path (%dx%d): %w", m, n, err)
	}
	return secs, nil
}

// fileSeconds runs the write-then-read path on the same machine shape: the
// producers spool every record to the file system (a machine-wide explicit
// distribution placing all elements on producer ranks), then the consumers
// read them back under a distribution placing all elements on consumer
// ranks, with the same verification, hashing, and per-record compute.
func fileSeconds(pt PipelinePoint, hashes []uint64) (float64, error) {
	m, n, records := pt.Producers, pt.Consumers, pt.Records
	p := m + n
	secs, err := pt.on(
		func(node *machine.Node, dProd, dCons *distr.Distribution) error {
			wOwners := make([]int, pt.Elems)
			rOwners := make([]int, pt.Elems)
			for g := range wOwners {
				wOwners[g] = dProd.Owner(g)
				rOwners[g] = p - n + dCons.Owner(g)
			}
			dW, err := distr.NewExplicit(wOwners, p)
			if err != nil {
				return err
			}
			dR, err := distr.NewExplicit(rOwners, p)
			if err != nil {
				return err
			}

			s, err := dstream.Open(node, dW, "spool")
			if err != nil {
				return err
			}
			c, err := collection.New[blob](node, dW)
			if err != nil {
				return err
			}
			for rec := 0; rec < records; rec++ {
				c.Apply(func(g int, b *blob) { fillBlob(b, g, rec, pt.ElemBytes) })
				if err := dstream.Insert[blob](s, c); err != nil {
					return err
				}
				if err := s.Write(); err != nil {
					return err
				}
			}
			if err := s.Close(); err != nil {
				return err
			}

			r, err := dstream.OpenInput(node, dR, "spool")
			if err != nil {
				return err
			}
			back, err := collection.New[blob](node, dR)
			if err != nil {
				return err
			}
			rank := node.Rank()
			slot := rank - (p - n)
			var h consumerHasher
			for rec := 0; rec < records; rec++ {
				if err := r.Read(); err != nil {
					return err
				}
				if err := dstream.Extract[blob](r, back); err != nil {
					return err
				}
				if rank >= p-n {
					if err := verifyBlobs(rec, dCons, slot, back.Local()); err != nil {
						return err
					}
					h.fold(rec, dCons, slot, back.Local())
					node.Compute(pt.ComputePerRecord)
				}
			}
			if rank >= p-n {
				hashes[slot] = h.sum
			}
			return r.Close()
		})
	if err != nil {
		return 0, fmt.Errorf("bench: file path (%dx%d): %w", m, n, err)
	}
	return secs, nil
}

// MeasurePipeline times the cell pt describes both ways and returns it with
// the measurements filled in. The file path's consumer distribution has the
// same per-consumer layout as the channel's, so the two digests are
// comparable slot by slot.
func MeasurePipeline(pt PipelinePoint) (PipelinePoint, error) {
	pipeHash := make([]uint64, pt.Consumers)
	fileHash := make([]uint64, pt.Consumers)
	var err error
	if pt.PipelineSeconds, err = pipelineSeconds(pt, pipeHash); err != nil {
		return pt, err
	}
	if pt.FileSeconds, err = fileSeconds(pt, fileHash); err != nil {
		return pt, err
	}
	pt.BytesMatch = true
	for i := range pipeHash {
		if pipeHash[i] != fileHash[i] {
			pt.BytesMatch = false
		}
	}
	if pt.PipelineSeconds > 0 {
		pt.Speedup = pt.FileSeconds / pt.PipelineSeconds
	}
	return pt, nil
}

// PipelineSweep runs the default pipeline-vs-file grid: M×N shape × element
// size × compute overlap, on the Paragon profile (the platform where the
// spool path pays real PFS cost).
func PipelineSweep() ([]PipelinePoint, error) {
	shapes := [][2]int{{1, 1}, {2, 2}, {4, 2}, {2, 4}}
	var out []PipelinePoint
	for _, sh := range shapes {
		for _, elemBytes := range []int{64, 4096} {
			for _, compute := range []float64{0, 0.005} {
				pt, err := MeasurePipeline(PipelinePoint{
					Platform: "paragon", Producers: sh[0], Consumers: sh[1],
					Elems: 128, ElemBytes: elemBytes, Records: 4, ComputePerRecord: compute,
				})
				if err != nil {
					return nil, err
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
}

// CheckPipeline is the acceptance gate for the channel subsystem: the
// consumed bytes must be identical to the file path in every cell, and the
// pipeline must beat write-then-read on at least half the grid.
func CheckPipeline(pts []PipelinePoint) (string, error) {
	if len(pts) == 0 {
		return "", fmt.Errorf("bench: empty pipeline grid")
	}
	wins := 0
	for _, p := range pts {
		if !p.BytesMatch {
			return "", fmt.Errorf("bench: pipeline cell %dx%d/%dB/compute=%.3f consumed different bytes than the file path",
				p.Producers, p.Consumers, p.ElemBytes, p.ComputePerRecord)
		}
		if p.PipelineSeconds < p.FileSeconds {
			wins++
		}
	}
	if 2*wins < len(pts) {
		return "", fmt.Errorf("bench: pipeline beat write-then-read on only %d of %d grid cells", wins, len(pts))
	}
	return fmt.Sprintf("pipeline beats write-then-read on %d of %d grid cells, all byte-identical", wins, len(pts)), nil
}

func formatPipeline(w io.Writer, pts []PipelinePoint) {
	fmt.Fprintln(w, "Pipeline-vs-file grid (virtual seconds, stream-to-stream channel against write-then-read)")
	fmt.Fprintln(w, "------------------------------------------------------------------------------------------")
	fmt.Fprintf(w, "%-10s %5s %5s %6s %9s %8s %9s %10s %10s %8s %6s\n",
		"platform", "prod", "cons", "elems", "elem B", "records", "compute", "pipeline", "file", "speedup", "bytes")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %5d %5d %6d %9d %8d %9.3f %10.4f %10.4f %7.2fx %6v\n",
			p.Platform, p.Producers, p.Consumers, p.Elems, p.ElemBytes, p.Records,
			p.ComputePerRecord, p.PipelineSeconds, p.FileSeconds, p.Speedup, p.BytesMatch)
	}
	fmt.Fprintln(w)
}
