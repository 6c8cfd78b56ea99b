package decoder

import (
	"repro/internal/semiring"
	"repro/internal/wfst"
)

// Three-way composed search keys. Without a bias machine a token is the
// (AM state, LM state) pair packed 32/32 by otfKey — bit-for-bit the
// two-layer layout, so the nil-bias decode is byte-identical to the
// pre-bias decoder (the invariant bias_differential_test.go pins down).
// With a bias machine installed the key packs (AM, LM, bias) as 26/26/12
// bits. Both layouts order keys identically for a fixed bias state: the
// packing is strictly monotone in the lexicographic (AM, LM) order, so the
// beam-prune cost-tie key comparison makes the same choices either way —
// which is what keeps the EMPTY bias machine (one root state, weight zero
// everywhere) byte-identical to nil as well.
const (
	biasStateBits = 12
	biasLMBits    = 26
	biasLMMask    = 1<<biasLMBits - 1
	biasStateMask = 1<<biasStateBits - 1
)

// key packs a composed search state in the layout the installed bias mode
// selects. The nil branch computes exactly otfKey.
func (d *OnTheFly) key(am, lm, bs wfst.StateID) uint64 {
	if d.bias == nil {
		return otfKey(am, lm)
	}
	return uint64(uint32(am))<<(biasLMBits+biasStateBits) |
		uint64(uint32(lm)&biasLMMask)<<biasStateBits |
		uint64(uint32(bs)&biasStateMask)
}

// unpack splits a composed key back into its component states; the bias
// state is 0 in two-layer mode.
func (d *OnTheFly) unpack(key uint64) (am, lm, bs wfst.StateID) {
	if d.bias == nil {
		return wfst.StateID(key >> 32), wfst.StateID(uint32(key)), 0
	}
	return wfst.StateID(key >> (biasLMBits + biasStateBits)),
		wfst.StateID((key >> biasStateBits) & biasLMMask),
		wfst.StateID(key & biasStateMask)
}

// startKey is the composed start state all decode paths (batch, stream)
// seed their first frontier with.
func (d *OnTheFly) startKey() uint64 {
	if d.bias == nil {
		return otfKey(d.am.Start(), d.lm.Start())
	}
	return d.key(d.am.Start(), d.lm.Start(), d.bias.Start())
}

// biasFinal returns the bias machine's exit weight for token key — the
// repayment of any unfinished phrase match — and semiring.One two-layer.
func (d *OnTheFly) biasFinal(bs wfst.StateID) semiring.Weight {
	if d.bias == nil {
		return semiring.One
	}
	return d.bias.Final(bs)
}
