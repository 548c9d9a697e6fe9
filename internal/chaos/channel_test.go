package chaos

import (
	"testing"
)

// TestChannelReferenceDeterministic: the fault-free file path is a fixed
// point — two reference runs produce identical consumed-bytes digests, so
// the channel oracle's cross-path comparison is meaningful.
func TestChannelReferenceDeterministic(t *testing.T) {
	a, err := ChannelReference(ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChannelReference(ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("reference digests empty")
	}
	for i := range a {
		if a[i] != b[i] || a[i] == 0 {
			t.Fatalf("reference digests not deterministic/nonzero: %x vs %x", a, b)
		}
	}
}

// TestChaosPipeline is the channel-oracle campaign: the M→N stream-to-stream
// pipeline under -chaos.n seeded transport fault schedules, each with a
// seeded mid-stream consumer stall that pushes the producers into the credit
// window. Every seed must end with the pipeline's consumed bytes identical
// to what the fault-free write-then-read file path delivers, or a clean
// error on every rank; hangs and silent corruption fail the suite. The
// asymmetric 3→2 shape keeps per-pair redistribution and the uneven-rank
// paths under fire too.
func TestChaosPipeline(t *testing.T) {
	rep := campaign(t, ChannelConfig{Producers: 3, Consumers: 2}.Scenario(), *chaosN)
	requireInjected(t, rep, commPlane)
	if rep.OK == 0 {
		t.Error("no channel seed completed successfully — default rates should mostly be survivable")
	}
}

// TestChaosPipelineOwnedFrames puts each fault the ownership rule exists for
// on the channel alone, at a rate no default schedule reaches. A producer
// gives every data frame up to the transport (an owned send); a send error
// delivers the frame and has the endpoint send it again, a duplicate delivers
// it twice, a delay or a reorder delivers it after Send has returned. If any
// of those paths handed the receiver the producer's buffer, the resend or the
// second delivery would carry bytes the consumer had already released —
// caught here as a digest that differs from the file path's, and under
// -tags pooldebug as a poisoned frame or a panic at the pool's next Get.
func TestChaosPipelineOwnedFrames(t *testing.T) {
	const seeds = 12
	for _, row := range []struct {
		kind  string
		rates Rates
	}{
		{"send_err", Rates{SendErr: 0.3}},
		{"duplicate", Rates{Duplicate: 0.3}},
		{"delay", Rates{Delay: 0.3}},
		{"reorder", Rates{Reorder: 0.3}},
	} {
		t.Run(row.kind, func(t *testing.T) {
			cfg := ChannelConfig{Producers: 3, Consumers: 2, Budget: Budget{Rates: row.rates}}
			rep := campaign(t, cfg.Scenario(), seeds)
			if rep.Injects["comm:"+row.kind] == 0 {
				t.Fatalf("no %s fault was injected", row.kind)
			}
			// None of the four loses a message, and six attempts absorb a 0.3
			// send error all but once in a thousand sends.
			if rep.OK < seeds-1 {
				t.Errorf("%d of %d seeds ended byte-identical to the file path (%d clean errors)", rep.OK, seeds, rep.CleanErrors)
			}
		})
	}
}
