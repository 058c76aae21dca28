package ptrnet

import (
	"context"
	"math"
)

// beamCand is one candidate extension in beam search: live position pos
// of beam number beam, ranked by key (a probability within one beam, a
// log-probability across beams).
type beamCand struct {
	key       float64
	beam, pos int
}

// insertTop inserts c into top, which is sorted by descending key and
// holds at most width entries; among equal keys the earlier insertion
// ranks first.
func insertTop(top []beamCand, c beamCand, width int) []beamCand {
	if len(top) == width {
		if !(c.key > top[width-1].key) {
			return top
		}
		top = top[:width-1]
	}
	i := len(top)
	top = append(top, c)
	for ; i > 0 && top[i-1].key < c.key; i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}

// extend makes st the child of parent that emits parent's live position k.
func (st *decState) extend(parent *decState, k int, logp float64) {
	v := parent.live[k]
	st.h = append(st.h[:0], parent.h...)
	st.c = append(st.c[:0], parent.c...)
	st.live = append(append(st.live[:0], parent.live[:k]...), parent.live[k+1:]...)
	st.seq = append(append(st.seq[:0], parent.seq...), v)
	st.last, st.logp = v, logp
}

// Beam is beam-search decoding with the given width: at each step every
// live beam expands to its `width` most probable next nodes and the
// `width` highest log-probability partial sequences survive. Width 1
// reduces to Greedy. Beam search trades width× compute for sequences of
// higher model likelihood — the third standard pointer-network inference
// mode beside greedy and sampling (Bello et al.). It checks ctx once per
// step and returns its error if cancelled or past its deadline.
func (e *Encoding) Beam(ctx context.Context, width int) ([]int, error) {
	n := len(e.emb)
	if width > n {
		width = n
	}
	if width < 2 {
		return e.Greedy(ctx)
	}
	// Two banks of states: the beams of this step and of the next.
	banks := e.sized(2 * width)
	cur, next := banks[:width], banks[width:]
	e.start(&cur[0])
	beams := 1
	if cap(e.cands) < 2*width {
		e.cands = make([]beamCand, 2*width)
	}
	local, global := e.cands[:0:width], e.cands[width:width:2*width]

	limit := budgetOf(ctx)
	for step := 0; step < n; step++ {
		if err := limit.err(); err != nil {
			return nil, err
		}
		global = global[:0]
		for b := 0; b < beams; b++ {
			st := &cur[b]
			local = local[:0]
			for k, pv := range e.decodeStep(st) {
				local = insertTop(local, beamCand{key: pv, beam: b, pos: k}, width)
			}
			for _, c := range local {
				c.key = st.logp + math.Log(c.key)
				global = insertTop(global, c, width)
			}
		}
		for i, c := range global {
			next[i].extend(&cur[c.beam], c.pos, c.key)
		}
		cur, next, beams = next, cur, len(global)
	}
	// global is sorted, so the first beam is the most likely sequence.
	return append([]int(nil), cur[0].seq...), nil
}
