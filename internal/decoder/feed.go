package decoder

import "repro/internal/wfst"

// Feeder supplies a search's acoustic score rows one frame at a time: the
// one contract between scoring and search. Row(i, need) returns frame i's
// row, indexed by senone (1-based). need, if the feeder calls it, returns
// the senones the search reads on that frame — the input labels of the
// pruned frontier's emitting arcs, each once — and the row must hold the
// scorer's value at every one of them; the search reads no other entry. A
// feeder with finished rows never calls need, and the search then pays
// nothing for it.
//
// Row is called in frame order, once per frame, and once more for each
// widening when search-failure rescue retries the frame (Config.
// RescueWidenings): need then lists the widened frontier's senones. The
// returned row must stay valid until the next Row call.
type Feeder interface {
	Row(i int, need func() []int32) []float32
}

// rowFeed is the Feeder over finished score rows: Decode's matrix, or the
// single row of a Stream.Push.
type rowFeed struct{ rows [][]float32 }

func (r *rowFeed) Row(i int, _ func() []int32) []float32 { return r.rows[i] }

// needSenones is the need function stepFrame hands its Feeder (bound once
// per scratch set as sc.need, so the call allocates nothing): the distinct
// input labels of the emitting arcs of sc.needCur, on the graphs of
// sc.needD, in first-read order. It walks the frontier as the emission
// loop does, gathering a block of tokens' arc ranges before reading any of
// their arcs, so a wide frontier's cache misses overlap (and the emission
// loop then finds those lines warm). seen stamps a label with the
// generation that last listed it, so a collection clears nothing.
func (sc *scratch) needSenones() []int32 {
	d, keys := sc.needD, sc.needCur.keys
	sc.gen++
	if sc.gen == 0 {
		clear(sc.seen)
		sc.gen = 1
	}
	out := sc.senones[:0]
	var span [gatherBlock][2]uint32
	for b := 0; b < len(keys); b += gatherBlock {
		blk := keys[b:min(b+gatherBlock, len(keys))]
		d.gather(blk, &span, sc)
		for j := range blk {
			for _, a := range d.am.ArcSpan(span[j][0], span[j][1]) {
				if a.In == wfst.Epsilon {
					continue
				}
				if int(a.In) >= len(sc.seen) {
					sc.seen = append(sc.seen, make([]uint32, int(a.In)+1-len(sc.seen))...)
				}
				if sc.seen[a.In] != sc.gen {
					sc.seen[a.In] = sc.gen
					out = append(out, a.In)
				}
			}
		}
	}
	sc.senones = out
	return out
}
