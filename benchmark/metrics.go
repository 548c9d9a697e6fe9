package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported number. Values keep every digit they were measured
// with.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct {
	name, unit, better string
}

// endToEnd and perLayer name every metric the program prints. BENCHMARK.json
// carries the same lists (with the bounds); a test keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"write_MBps", "MB/s", "higher"},
	{"read_MBps", "MB/s", "higher"},
	{"allocs_per_elem", "1/elem", "lower"},
	{"alloc_bytes_per_payload_byte", "B/B", "lower"},
}

var perLayer = []metricDef{
	// dstream: spans around the façade calls, per cycle, summed over ranks.
	{"dstream.open_ms", "ms", "lower"},
	{"dstream.insert_ms", "ms", "lower"},
	{"dstream.write_ms", "ms", "lower"},
	{"dstream.close_ms", "ms", "lower"},
	{"dstream.open_input_ms", "ms", "lower"},
	{"dstream.read_ms", "ms", "lower"},
	{"dstream.extract_ms", "ms", "lower"},
	{"dstream.close_input_ms", "ms", "lower"},
	{"dstream.write_self_ms", "ms", "lower"},
	{"dstream.read_self_ms", "ms", "lower"},
	{"dstream.chan_write_ms", "ms", "lower"},
	{"dstream.chan_read_ms", "ms", "lower"},
	{"dstream.plan_switches", "1/cycle", "lower"},
	{"dstream.file_bytes_per_payload_byte", "B/B", "lower"},
	// ckpt
	{"ckpt.commit_ms", "ms", "lower"},
	{"ckpt.latest_ms", "ms", "lower"},
	// comm: the wrapped Transport, then the rungs.
	{"comm.msgs_per_cycle", "count", "lower"},
	{"comm.bytes_per_payload_byte", "B/B", "lower"},
	{"comm.send_busy_ms", "ms", "lower"},
	{"comm.recv_wait_ms", "ms", "lower"},
	{"comm.ring_spills", "count", "lower"},
	{"comm.ring_full_stalls", "count", "lower"},
	{"comm.ring_msg_us", "us", "lower"},
	{"comm.ring_bulk_MBps", "MB/s", "higher"},
	{"comm.tcp_msg_us", "us", "lower"},
	{"comm.tcp_bulk_MBps", "MB/s", "higher"},
	// collective rungs
	{"collective.barrier_us", "us", "lower"},
	{"collective.allreduce_us", "us", "lower"},
	{"collective.bcast_MBps", "MB/s", "higher"},
	{"collective.gather_MBps", "MB/s", "higher"},
	{"collective.alltoallv_MBps", "MB/s", "higher"},
	// pfs: the wrapped Backend, IOStats, then the rungs.
	{"pfs.backend_write_ops_per_cycle", "count", "lower"},
	{"pfs.backend_read_ops_per_cycle", "count", "lower"},
	{"pfs.backend_write_bytes_per_payload_byte", "B/B", "lower"},
	{"pfs.backend_read_bytes_per_payload_byte", "B/B", "lower"},
	{"pfs.backend_write_KiB_p50", "KiB", "higher"},
	{"pfs.backend_write_busy_ms", "ms", "lower"},
	{"pfs.backend_read_busy_ms", "ms", "lower"},
	{"pfs.parallel_appends_per_cycle", "count", "lower"},
	{"pfs.parallel_reads_per_cycle", "count", "lower"},
	{"pfs.control_syncs_per_cycle", "count", "lower"},
	{"pfs.independent_ops_per_cycle", "count", "lower"},
	{"pfs.io_retries", "count", "lower"},
	{"pfs.mem_append_MBps", "MB/s", "higher"},
	{"pfs.mem_read_MBps", "MB/s", "higher"},
	{"pfs.striped_append_MBps", "MB/s", "higher"},
	{"pfs.striped_read_MBps", "MB/s", "higher"},
	{"pfs.os_append_MBps", "MB/s", "higher"},
	{"pfs.os_read_MBps", "MB/s", "higher"},
	// server: both sides of the daemon's wire, then the rungs.
	{"server.client_io_ms", "ms", "lower"},
	{"server.store_io_ms", "ms", "lower"},
	{"server.wire_ms", "ms", "lower"},
	{"server.rtt_us", "us", "lower"},
	{"server.write_MBps", "MB/s", "higher"},
	{"server.read_MBps", "MB/s", "higher"},
	// enc rungs
	{"enc.encode_MBps", "MB/s", "higher"},
	{"enc.decode_MBps", "MB/s", "higher"},
	{"enc.encode_small_ns", "ns", "lower"},
	{"enc.decode_small_ns", "ns", "lower"},
	// bufpool
	{"bufpool.hit_rate", "ratio", "higher"},
	{"bufpool.oversize_per_cycle", "count", "lower"},
	{"bufpool.outstanding_after", "count", "lower"},
	{"bufpool.getput_ns", "ns", "lower"},
	// machine
	{"machine.ref_speed", "ratio", "higher"},
	{"machine.run_ms", "ms", "lower"},
	{"machine.cpu_ms_per_MB", "ms/MB", "lower"},
	{"machine.heap_peak_MB", "MB", "lower"},
	{"machine.p1_write_MBps", "MB/s", "higher"},
	{"machine.p1_read_MBps", "MB/s", "higher"},
	// tail and the tracer's own cost
	{"tail.write_p90_ms", "ms", "lower"},
	{"tail.read_p90_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.coverage_pct", "%", "higher"},
	{"trace.rank_skew_pct", "%", "lower"},
}

// quantile returns the q-quantile of v by linear interpolation; 0 for none.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// timing is how a phase time is reported: median, p90 and how many samples.
type timing struct {
	Median float64 `json:"median"`
	P90    float64 `json:"p90"`
	N      int     `json:"n"`
}

func timingOf(v []float64) timing { return timing{median(v), quantile(v, 0.9), len(v)} }

// phaseMs returns the measured cycles' output and input phase times in ms,
// as the clock read them.
func phaseMs(res *runResult) (out, in []float64) {
	for _, c := range res.measured {
		out = append(out, float64(c.outEnd-c.outStart)/1e6)
		in = append(in, float64(c.inEnd-c.inStart)/1e6)
	}
	return out, in
}

// calmPhaseMs returns the same times as they would have read with the box at
// its calm speed: each scaled by the speed the reference round trip found
// just before the cycle (calib.go).
func calmPhaseMs(res *runResult) (out, in []float64) {
	out, in = phaseMs(res)
	for i, c := range res.measured {
		out[i] *= c.speed
		in[i] *= c.speed
	}
	return out, in
}

// speeds returns the box's speed before each measured cycle.
func speeds(res *runResult) []float64 {
	var v []float64
	for _, c := range res.measured {
		v = append(v, c.speed)
	}
	return v
}

// mbps is payload bytes over a time in ms, in 10^6 bytes per second.
func mbps(payload int64, ms float64) float64 {
	if ms <= 0 {
		return 0
	}
	return float64(payload) / 1e3 / ms
}

// endToEndMetrics derives the five user-visible numbers from an untraced
// run. setups holds the set-up time of every repeat, this run's included,
// at the box's calm speed like the phase times.
func endToEndMetrics(res *runResult, setups []float64) map[string]metric {
	out, in := calmPhaseMs(res)
	// Counted over every measured cycle, failed ones too: they allocated.
	cycles := float64(max(res.measuredAll, 1))
	return map[string]metric{
		"setup_s":                      {median(setups), "s"},
		"write_MBps":                   {mbps(res.payload, median(out)), "MB/s"},
		"read_MBps":                    {mbps(res.payload, median(in)), "MB/s"},
		"allocs_per_elem":              {float64(res.mallocs) / (cycles * float64(res.elems)), "1/elem"},
		"alloc_bytes_per_payload_byte": {float64(res.allocBytes) / (cycles * float64(res.payload)), "B/B"},
	}
}

// interval is a half-open stretch of the tracer's clock.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the intervals cover, overlaps counted
// once.
func covered(lo, hi int64, ivs []interval) int64 {
	var clip []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].lo < clip[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clip {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// cycleAgg is one traced cycle's sums, over ranks.
type cycleAgg struct {
	dur, cnt, bytes                     [numKinds]int64
	writeSelf, readSelf, commit, latest int64
	top                                 int64 // façade calls made straight from a phase
	parked                              int64 // the part of top during which the backend was busy
	outRanks, inRanks                   map[int8]bool
}

// aggregate folds a traced run's spans into per-cycle sums.
func aggregate(spans []span) map[int32]*cycleAgg {
	aggs := map[int32]*cycleAgg{}
	get := func(c int32) *cycleAgg {
		a := aggs[c]
		if a == nil {
			a = &cycleAgg{outRanks: map[int8]bool{}, inRanks: map[int8]bool{}}
			aggs[c] = a
		}
		return a
	}
	byID := make(map[int32]*span, len(spans))
	children := map[int32][]interval{} // seam time under each façade span
	backend := map[int32][]interval{}  // per cycle
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		a := get(s.Cycle)
		a.dur[s.Kind] += s.dur()
		a.cnt[s.Kind]++
		a.bytes[s.Kind] += s.Bytes
		switch {
		case s.Kind == kSend || s.Kind == kRecv:
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		case s.Kind >= kBackendWrite && s.Kind <= kBackendSize:
			backend[s.Cycle] = append(backend[s.Cycle], interval{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		if !s.Kind.facade() {
			continue
		}
		a := get(s.Cycle)
		parent := byID[s.Parent]
		if parent != nil && !parent.Kind.facade() {
			a.top += s.dur()
			// While the backend works every rank of the collective is parked
			// on it, so its busy time counts against each of their spans.
			a.parked += covered(s.Start, s.End, backend[s.Cycle])
			if s.Kind.outputSide() {
				a.outRanks[s.Rank] = true
			} else {
				a.inRanks[s.Rank] = true
			}
		}
		switch s.Kind {
		case kWrite, kRead, kChanWrite, kChanRead:
			seam := append(append([]interval(nil), children[s.ID]...), backend[s.Cycle]...)
			self := s.dur() - covered(s.Start, s.End, seam)
			if s.Kind.outputSide() {
				a.writeSelf += self
			} else {
				a.readSelf += self
			}
		case kSave:
			a.commit += s.dur()
		case kRestore:
			a.latest += s.dur()
		}
		// What a checkpoint call costs beyond the stream calls inside it.
		if parent != nil && parent.Kind == kSave {
			a.commit -= s.dur()
		} else if parent != nil && parent.Kind == kRestore {
			a.latest -= s.dur()
		}
	}
	return aggs
}

// layerMetrics derives the seam numbers from a traced run and its spans'
// per-cycle sums (fast is the untraced run made beside it), and adds the
// rungs.
func layerMetrics(fast, traced *runResult, aggs map[int32]*cycleAgg, rungs map[string]float64) map[string]metric {
	per := func(f func(*cycleAgg) float64) float64 {
		var v []float64
		for _, c := range traced.measured {
			if a := aggs[c.cycle]; a != nil {
				v = append(v, f(a))
			} else {
				v = append(v, 0)
			}
		}
		return median(v)
	}
	ms := func(kinds ...spanKind) float64 {
		return per(func(a *cycleAgg) float64 {
			var t int64
			for _, k := range kinds {
				t += a.dur[k]
			}
			return float64(t) / 1e6
		})
	}
	cycles := float64(max(len(traced.measured), 1))
	payload := float64(max(traced.payload, 1))
	moved := 2 * payload * cycles / 1e6 // MB written and read over the traced cycles

	vals := map[string]float64{
		"dstream.open_ms":                     ms(kOpen, kChanOpen),
		"dstream.insert_ms":                   ms(kInsert, kChanInsert),
		"dstream.write_ms":                    ms(kWrite),
		"dstream.close_ms":                    ms(kClose, kChanClose),
		"dstream.open_input_ms":               ms(kOpenInput, kChanOpenInput),
		"dstream.read_ms":                     ms(kRead),
		"dstream.extract_ms":                  ms(kExtract, kChanExtract),
		"dstream.close_input_ms":              ms(kCloseInput, kChanCloseInput),
		"dstream.write_self_ms":               per(func(a *cycleAgg) float64 { return float64(a.writeSelf) / 1e6 }),
		"dstream.read_self_ms":                per(func(a *cycleAgg) float64 { return float64(a.readSelf) / 1e6 }),
		"dstream.chan_write_ms":               ms(kChanWrite),
		"dstream.chan_read_ms":                ms(kChanRead),
		"dstream.plan_switches":               float64(traced.planSwitches) / cycles,
		"dstream.file_bytes_per_payload_byte": float64(traced.imageBytes) / payload,

		"ckpt.commit_ms": per(func(a *cycleAgg) float64 { return float64(a.commit) / 1e6 }),
		"ckpt.latest_ms": per(func(a *cycleAgg) float64 { return float64(a.latest) / 1e6 }),

		"comm.msgs_per_cycle":         per(func(a *cycleAgg) float64 { return float64(a.cnt[kSend]) }),
		"comm.bytes_per_payload_byte": per(func(a *cycleAgg) float64 { return float64(a.bytes[kSend]) / payload }),
		"comm.send_busy_ms":           ms(kSend),
		"comm.recv_wait_ms":           ms(kRecv),
		"comm.ring_spills":            float64(traced.ring.Spills),
		"comm.ring_full_stalls":       float64(traced.ring.FullStalls),

		"pfs.backend_write_ops_per_cycle":          per(func(a *cycleAgg) float64 { return float64(a.cnt[kBackendWrite]) }),
		"pfs.backend_read_ops_per_cycle":           per(func(a *cycleAgg) float64 { return float64(a.cnt[kBackendRead]) }),
		"pfs.backend_write_bytes_per_payload_byte": per(func(a *cycleAgg) float64 { return float64(a.bytes[kBackendWrite]) / payload }),
		"pfs.backend_read_bytes_per_payload_byte":  per(func(a *cycleAgg) float64 { return float64(a.bytes[kBackendRead]) / payload }),
		"pfs.backend_write_busy_ms":                ms(kBackendWrite),
		"pfs.backend_read_busy_ms":                 ms(kBackendRead),
		"pfs.parallel_appends_per_cycle":           float64(traced.io.ParallelAppends) / cycles,
		"pfs.parallel_reads_per_cycle":             float64(traced.io.ParallelReads) / cycles,
		"pfs.control_syncs_per_cycle":              float64(traced.io.ControlSyncs) / cycles,
		"pfs.independent_ops_per_cycle":            float64(traced.io.IndependentWrites+traced.io.IndependentReads) / cycles,
		"pfs.io_retries":                           float64(traced.io.IORetries),

		"bufpool.oversize_per_cycle": float64(traced.pool.Oversize) / cycles,
		"bufpool.outstanding_after":  float64(traced.pool.Outstanding),

		"machine.ref_speed":    median(speeds(traced)),
		"machine.heap_peak_MB": float64(traced.heapPeak) / 1e6,
	}
	if gets := traced.pool.Hits + traced.pool.Misses; gets > 0 {
		vals["bufpool.hit_rate"] = float64(traced.pool.Hits) / float64(gets)
	}

	var sizes []float64
	var cpu int64
	for i := range traced.spans {
		if s := &traced.spans[i]; s.Kind == kBackendWrite {
			sizes = append(sizes, float64(s.Bytes)/1024)
		}
	}
	for _, c := range traced.measured {
		cpu += c.cpuNs
	}
	vals["pfs.backend_write_KiB_p50"] = median(sizes)
	vals["machine.cpu_ms_per_MB"] = float64(cpu) / 1e6 / moved

	// Only the daemon has a store side; elsewhere all three stay zero.
	if store := ms(kStoreWrite, kStoreRead, kStoreTruncate, kStoreSize); store > 0 {
		client := ms(kBackendWrite, kBackendRead, kBackendTruncate, kBackendSize)
		vals["server.client_io_ms"], vals["server.store_io_ms"], vals["server.wire_ms"] = client, store, client-store
	}

	fastOut, fastIn := calmPhaseMs(fast)
	tracedOut, _ := calmPhaseMs(traced)
	vals["tail.write_p90_ms"] = quantile(fastOut, 0.9)
	vals["tail.read_p90_ms"] = quantile(fastIn, 0.9)
	if f, t := median(fastOut), median(tracedOut); f > 0 {
		vals["trace.overhead_pct"] = (t/f - 1) * 100
	}
	// Where the phases' rank time went: inside a façade call, waiting for the
	// other ranks at either end of a phase, or (the rest) in the benchmark's
	// own loop between two calls.
	var top, skew, wall float64
	for _, c := range traced.measured {
		if a := aggs[c.cycle]; a != nil {
			top += float64(a.top)
			skew += float64(c.skewNs)
			wall += float64(len(a.outRanks))*float64(c.outEnd-c.outStart) + float64(len(a.inRanks))*float64(c.inEnd-c.inStart)
		}
	}
	if wall > 0 {
		vals["trace.coverage_pct"] = (top + skew) / wall * 100
		vals["trace.rank_skew_pct"] = skew / wall * 100
	}

	for k, v := range rungs {
		vals[k] = v
	}
	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// timeShares says where the phases' rank time went in a traced run, as one
// line: inside dstream's own code (inserts, extracts, and the writes' and
// reads' self time), in comm sends and receives, parked on storage (for the
// daemon, how much of that was the wire), in the checkpoint manager's own
// protocol, waiting for the other ranks at a phase's ends, and the rest
// (opens, closes, the benchmark's loop). A receive that waits for a rank
// parked on storage counts twice, so the parts can slightly exceed the whole.
func timeShares(traced *runResult, aggs map[int32]*cycleAgg) string {
	var wall, dstream, comm, parked, client, store, ckpt, skew float64
	for _, c := range traced.measured {
		a := aggs[c.cycle]
		if a == nil {
			continue
		}
		wall += float64(len(a.outRanks))*float64(c.outEnd-c.outStart) + float64(len(a.inRanks))*float64(c.inEnd-c.inStart)
		dstream += float64(a.dur[kInsert] + a.dur[kChanInsert] + a.dur[kExtract] + a.dur[kChanExtract] + a.writeSelf + a.readSelf)
		comm += float64(a.dur[kSend] + a.dur[kRecv])
		parked += float64(a.parked)
		for k := kBackendWrite; k <= kBackendSize; k++ {
			client += float64(a.dur[k])
			store += float64(a.dur[k+kStoreWrite-kBackendWrite])
		}
		ckpt += float64(a.commit + a.latest)
		skew += float64(c.skewNs)
	}
	if wall == 0 {
		return ""
	}
	wire := 0.0
	if store > 0 && client > 0 {
		wire = parked * (1 - store/client)
	}
	pct := func(v float64) float64 { return v / wall * 100 }
	return fmt.Sprintf("dstream %.1f%% | comm %.1f%% | storage %.1f%% (of which daemon wire %.1f%%) | ckpt %.1f%% | rank skew %.1f%% | other %.1f%%",
		pct(dstream), pct(comm), pct(parked), pct(wire), pct(ckpt), pct(skew), pct(wall-dstream-comm-parked-ckpt-skew))
}
