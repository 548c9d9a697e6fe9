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
