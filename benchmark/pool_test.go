package main

import (
	"bytes"
	"testing"
)

func sameCycle(a, b *pool) bool {
	if len(a.cycle) != len(b.cycle) || len(a.keys) != len(b.keys) {
		return false
	}
	for i := range a.cycle {
		if !bytes.Equal(a.cycle[i].body, b.cycle[i].body) || a.cycle[i].kind != b.cycle[i].kind {
			return false
		}
	}
	return true
}

func TestPoolsAreDeterministicPerSeed(t *testing.T) {
	o := requestOpts{class: "batch", backends: []string{"rl"}}
	for name, build := range map[string]func(int64, requestOpts) (*pool, error){
		"zoo": func(seed int64, o requestOpts) (*pool, error) { return zooPool(seed, 4, o) },
		"rl":  rlPool,
	} {
		a, err := build(7, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(7, o)
		if err != nil {
			t.Fatal(err)
		}
		c, err := build(8, o)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCycle(a, b) {
			t.Errorf("%s: the same seed built two different cycles", name)
		}
		if sameCycle(a, c) {
			t.Errorf("%s: seeds 7 and 8 built the same cycle", name)
		}
	}
}

func TestZooPoolMix(t *testing.T) {
	p, err := zooPool(1, 4, requestOpts{class: "interactive"})
	if err != nil {
		t.Fatal(err)
	}
	inlined := map[int]int{}
	named := map[int]int{}
	for _, r := range p.cycle {
		if r.kind == inline {
			inlined[r.key]++
		} else {
			named[r.key]++
		}
	}
	for id := range p.keys {
		if inlined[id] != 1 || named[id] != 3 {
			t.Errorf("key %d: %d inline and %d by-name requests per cycle, want 1 and 3", id, inlined[id], named[id])
		}
	}
}

func TestTracedBodyOnlyAddsTheFlag(t *testing.T) {
	insts, err := zooInstances([]string{"MobileNet"})
	if err != nil {
		t.Fatal(err)
	}
	plain := scheduleBody(insts[0], inline, 4, requestOpts{class: "batch"})
	traced := scheduleBody(insts[0], inline, 4, requestOpts{class: "batch", trace: true})
	if want := len(plain) + len(`,"trace":true`); len(traced) != want {
		t.Errorf("traced body is %d bytes, want %d", len(traced), want)
	}
	if !bytes.Contains(traced, insts[0].doc) {
		t.Error("the inline graph must go out exactly as WriteJSON wrote it")
	}
}
