package main

import (
	"fmt"
	"time"
)

// selfTestWindow is the measured window of each self-test run.
const selfTestWindow = 5 * time.Second

// cacheRise is the least factor by which zoo_hit's latency_p50_ms and
// cpu_ms_per_req must rise when its cache stops hitting.
const cacheRise = 1.3

// quickRun boots w, warms it up and measures one short untraced window,
// without gates: the self-test breaks the workloads on purpose.
func (e *env) quickRun(w *workload) (*window, error) {
	pr, err := e.prepare(w, false)
	if err != nil {
		return nil, err
	}
	defer pr.fleet.stop()
	win, err := pr.fleet.measure(pr.pool, selfTestWindow)
	if err != nil {
		return nil, err
	}
	if len(win.samples) == 0 {
		return nil, fmt.Errorf("%s: no request succeeded:%s", w.name, win.failureSummary())
	}
	return win, nil
}

// selfTest shows from outside the program that the metrics respond to the
// layer each workload names. Shrinking zoo_hit's cache to one entry must
// collapse its hit share and raise its median latency and its server CPU
// per request by at least cacheRise (measured: 2.0x and 1.6x; the
// heur+compiler race a miss pays is cheap next to decode and encode);
// answering rl_infer's requests with the heur backend instead of rl must
// cut its median latency at least five-fold.
func (e *env) selfTest() error {
	zoo, err := workloadByName("zoo_hit")
	if err != nil {
		return err
	}
	base, err := e.quickRun(zoo)
	if err != nil {
		return err
	}
	// A one-entry cache also holds only one warmed schedule.
	oneEntry := *zoo
	oneEntry.args = append(append([]string(nil), zoo.args...), "-cache", "1")
	oneEntry.warmed = 1
	tiny, err := e.quickRun(&oneEntry)
	if err != nil {
		return err
	}
	hitShare := func(w *window) float64 {
		d := w.classDelta(zoo.class)
		return ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses))
	}
	cpuPerReq := func(w *window) float64 { return w.serverCPU * 1000 / float64(len(w.samples)) }
	p50 := func(w *window) float64 { return median(w.latencies()) }
	fmt.Printf("selftest zoo_hit     -cache 512: hit share %.3f, p50 %.3f ms, cpu %.3f ms/req\n", hitShare(base), p50(base), cpuPerReq(base))
	fmt.Printf("selftest zoo_hit     -cache 1  : hit share %.3f, p50 %.3f ms, cpu %.3f ms/req\n", hitShare(tiny), p50(tiny), cpuPerReq(tiny))
	if hitShare(tiny) > 0.5 || p50(tiny) < cacheRise*p50(base) || cpuPerReq(tiny) < cacheRise*cpuPerReq(base) {
		return fmt.Errorf("selftest: zoo_hit does not respond to its cache: want hit share <= 0.5 and p50, cpu/req up at least %.1fx", cacheRise)
	}

	rlw, err := workloadByName("rl_infer")
	if err != nil {
		return err
	}
	rlBase, err := e.quickRun(rlw)
	if err != nil {
		return err
	}
	heur := *rlw
	heur.backends = []string{"heur"}
	rlHeur, err := e.quickRun(&heur)
	if err != nil {
		return err
	}
	fmt.Printf("selftest rl_infer    backends rl  : p50 %.3f ms\n", p50(rlBase))
	fmt.Printf("selftest rl_infer    backends heur: p50 %.3f ms\n", p50(rlHeur))
	if p50(rlHeur)*5 > p50(rlBase) {
		return fmt.Errorf("selftest: rl_infer does not respond to its backend: want p50 at least 5x lower with heur")
	}
	fmt.Println("selftest passed")
	return nil
}
