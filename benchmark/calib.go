package main

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its host: the speed of its
// two cores swings by a quarter and more from one second to the next and
// from one minute to the next, and with it every raw timing (measured
// over ten 10-second runs per workload: raw throughput, latency and CPU
// per request each spread 20-60 % between runs of the same code). So the
// load generator times a fixed piece of CPU work every few milliseconds
// while a window runs, and every time the window measures is divided by
// how much slower than the reference that work ran in the same second.
// The reported milliseconds are milliseconds of a machine that runs the
// calibration burst in refBurst; the same ten runs then spread 3-6 %.
const (
	// refBurst is the calibration burst's duration on the reference
	// machine (the sizing sandbox in its fast state).
	refBurst = 160 * time.Microsecond
	// burstEvery paces the bursts: about 2 % of one core.
	burstEvery = 10 * time.Millisecond
	// speedSlice is the span over which one slowdown factor holds.
	speedSlice = time.Second
	// minBursts is how many bursts a slice needs for its own factor;
	// with fewer it takes the whole window's.
	minBursts = 5
)

// calibrationDoc is the fixed input of the calibration burst.
var calibrationDoc = func() []byte {
	type node struct {
		Name       string `json:"name"`
		Kind       string `json:"kind"`
		ParamBytes int64  `json:"param_bytes"`
	}
	var doc struct {
		Nodes []node   `json:"nodes"`
		Edges [][2]int `json:"edges"`
	}
	for i := 0; i < 96; i++ {
		doc.Nodes = append(doc.Nodes, node{Name: "calibration-node", Kind: "conv2d", ParamBytes: int64(i) * 4096})
		if i > 0 {
			doc.Edges = append(doc.Edges, [2]int{i - 1, i})
		}
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return raw
}()

// calibrationBurst decodes the fixed document and walks its edges: the
// kind of work (parsing, allocation, integer loops) the server does per
// request, and none of the repository's code.
func calibrationBurst() int {
	var g struct {
		Nodes []struct {
			Name       string `json:"name"`
			ParamBytes int64  `json:"param_bytes"`
		} `json:"nodes"`
		Edges [][2]int `json:"edges"`
	}
	if err := json.Unmarshal(calibrationDoc, &g); err != nil {
		panic(err) // the document is this file's own
	}
	sum := 0
	for _, e := range g.Edges {
		sum += e[0] ^ e[1]
	}
	return sum
}

// burst is one timed calibration burst.
type burst struct {
	at   time.Duration // since the calibrator started
	took time.Duration
}

// calibrator times calibration bursts in the background until stopped.
type calibrator struct {
	begin  time.Time
	stop   chan struct{}
	wg     sync.WaitGroup
	bursts []burst
}

func startCalibrator() *calibrator {
	c := &calibrator{begin: time.Now(), stop: make(chan struct{})}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(burstEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			start := time.Now()
			calibrationBurst()
			c.bursts = append(c.bursts, burst{at: start.Sub(c.begin), took: time.Since(start)})
		}
	}()
	return c
}

// finish stops the bursts and returns the machine's slowdown over the
// time the calibrator ran.
func (c *calibrator) finish() *slowdown {
	close(c.stop)
	c.wg.Wait()
	return newSlowdown(c.bursts, time.Since(c.begin))
}

// slowdown says, for each speedSlice of a window, how many times slower
// than the reference machine the calibration burst ran.
type slowdown struct {
	factor []float64
	whole  float64 // over all bursts of the window
}

func medianBurst(b []time.Duration) float64 {
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return float64(b[len(b)/2]) / float64(refBurst)
}

func newSlowdown(bursts []burst, elapsed time.Duration) *slowdown {
	s := &slowdown{whole: 1}
	n := int(elapsed/speedSlice) + 1
	per := make([][]time.Duration, n)
	var all []time.Duration
	for _, b := range bursts {
		all = append(all, b.took)
		if i := int(b.at / speedSlice); i < n {
			per[i] = append(per[i], b.took)
		}
	}
	if len(all) > 0 {
		s.whole = medianBurst(all)
	}
	s.factor = make([]float64, n)
	for i, b := range per {
		s.factor[i] = s.whole
		if len(b) >= minBursts {
			s.factor[i] = medianBurst(b)
		}
	}
	return s
}

// at is the slowdown factor at time t of the window.
func (s *slowdown) at(t time.Duration) float64 {
	i := int(t / speedSlice)
	if i < 0 || i >= len(s.factor) {
		return s.whole
	}
	return s.factor[i]
}

// reference converts the span [from, to) of the window into time on the
// reference machine.
func (s *slowdown) reference(from, to time.Duration) time.Duration {
	var ref float64
	for t := from; t < to; {
		end := min((t/speedSlice+1)*speedSlice, to)
		ref += float64(end-t) / s.at(t)
		t = end
	}
	return time.Duration(ref)
}

// max is the worst slice's factor.
func (s *slowdown) max() float64 {
	m := s.whole
	for _, f := range s.factor {
		m = max(m, f)
	}
	return m
}
