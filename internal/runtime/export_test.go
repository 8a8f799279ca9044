package runtime

// ShrinkQueues sets the receive ring capacity and the send shard depth
// for runners created until restore is called, so a test can force the
// overflow paths without the bounds being a public knob.
func ShrinkQueues(ringSlots, shardDepth int) (restore func()) {
	oldRing, oldShard := rxRingSlots, sendShardDepth
	rxRingSlots, sendShardDepth = ringSlots, shardDepth
	return func() { rxRingSlots, sendShardDepth = oldRing, oldShard }
}

// RxBurstMax exposes the per-turn ingest cap to the tests.
const RxBurstMax = rxBurstMax
