package serve_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"respect/internal/serve"
	"respect/internal/synth"
)

// The golden file was recorded at the parent of the commit that merged
// the solver's two memoizing types into solver.Engine and serve's three
// admission/solve copies into admit/run, by running this test there with
// -update-golden; that commit's only difference was the
// respect_portfolio_wins_total{engine="batch/heur"} series (a batch solve
// became a race of one). It was rewritten once since, when the anneal
// backend was deleted; the only difference was anneal leaving the two
// backend lists. A difference is a finding to explain, not a reason to
// regenerate.
var updateWireGolden = flag.Bool("update-golden", false, "rewrite "+wireGoldenPath+" from this tree's server")

const wireGoldenPath = "testdata/wire_golden.json"

// wireRecord is one scripted exchange as the golden file keeps it.
type wireRecord struct {
	Name        string          `json:"name"`
	Status      int             `json:"status"`
	ContentType string          `json:"content_type"`
	RetryAfter  string          `json:"retry_after,omitempty"`
	Body        json.RawMessage `json:"body,omitempty"`
	// Series is the sorted name{labels} set of a /metrics page; values
	// (counts, latencies) are not compared.
	Series []string `json:"series,omitempty"`
}

// wireTimeKeys are the measured-duration fields zeroed before comparing.
var wireTimeKeys = map[string]bool{
	"elapsed_ms": true, "queue_wait_ms": true, "solve_ms": true, "total_ms": true,
	"start_ms": true, "finish_ms": true, "uptime_ms": true,
}

// wireBuiltins are the model-free backends every process registers; other
// tests of this package add their own to the shared registry, so backend
// lists are cut down to these.
var wireBuiltins = []string{"compiler", "exact", "exact-ilp-grade", "heur"}

var wireHaveList = regexp.MustCompile(`\(have \[([^\]]*)\]\)`)

// normalizeWire zeroes time-valued fields, restricts the "backends" name
// list to the built-ins and sorts the "(have [...])" lists of error
// messages, which the server prints in map order.
func normalizeWire(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			switch {
			case wireTimeKeys[k]:
				x[k] = 0
			case k == "error":
				if s, ok := val.(string); ok {
					x[k] = wireHaveList.ReplaceAllStringFunc(s, func(m string) string {
						names := strings.Fields(wireHaveList.FindStringSubmatch(m)[1])
						if strings.Contains(s, "unknown backend") {
							names = slices.DeleteFunc(names, func(n string) bool { return !slices.Contains(wireBuiltins, n) })
						}
						sort.Strings(names)
						return "(have [" + strings.Join(names, " ") + "])"
					})
				}
			default:
				x[k] = normalizeWire(val)
			}
		}
		if names, ok := x["backends"].([]any); ok {
			x["backends"] = slices.DeleteFunc(names, func(n any) bool {
				s, _ := n.(string)
				return !slices.Contains(wireBuiltins, s)
			})
		}
	case []any:
		for i := range x {
			x[i] = normalizeWire(x[i])
		}
	}
	return v
}

// metricSeries extracts the sorted name{labels} set of an exposition page.
func metricSeries(page []byte) []string {
	var out []string
	for _, line := range strings.Split(string(page), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line[:strings.LastIndexByte(line, ' ')])
	}
	sort.Strings(out)
	return out
}

// wireScript replays the fixed request script against a fresh server and
// returns one record per exchange.
func wireScript(t *testing.T) []wireRecord {
	t.Helper()
	// Budgets are generous and patience is off, so every raced backend
	// finishes and the outcome lists do not depend on machine speed.
	_, ts := newTestServer(t, serve.Config{
		WarmModels: []string{},
		Classes: map[serve.Class]serve.ClassPolicy{
			serve.ClassInteractive: {Budget: 30 * time.Second, Backends: []string{"heur", "compiler"}, MaxConcurrent: 4, MaxQueue: 4, Warm: true},
			serve.ClassBatch:       {Budget: 30 * time.Second, Backends: []string{"heur", "exact", "compiler"}, MaxConcurrent: 2, MaxQueue: 2},
		},
	})
	sampler, err := synth.NewSampler(synth.DefaultConfig(3), 20230710)
	if err != nil {
		t.Fatal(err)
	}
	var inlineBuf bytes.Buffer
	if err := sampler.Sample().WriteJSON(&inlineBuf); err != nil {
		t.Fatal(err)
	}
	inline := json.RawMessage(inlineBuf.Bytes())

	steps := []struct {
		name, path string
		body       any // nil: GET; a string goes out as it is
	}{
		{"schedule by name (miss)", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: 4}},
		{"schedule by name (hit)", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: 4}},
		{"schedule inline", "/v1/schedule", serve.ScheduleRequest{Graph: inline, Stages: 4, Class: "batch"}},
		{"schedule backends override", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Stages: 4, Backends: []string{"heur"}}},
		{"schedule trace", "/v1/schedule", serve.ScheduleRequest{Model: "MobileNet", Stages: 4, Trace: true}},
		{"schedule unknown model", "/v1/schedule", serve.ScheduleRequest{Model: "NoSuchNet", Stages: 4}},
		{"schedule stages > nodes", "/v1/schedule", serve.ScheduleRequest{Graph: inline, Stages: 31}},
		{"schedule unknown class", "/v1/schedule", serve.ScheduleRequest{Model: "ResNet50", Class: "platinum"}},
		{"batch", "/v1/batch", serve.BatchRequest{Models: []string{"ResNet50", "Xception"}, Graphs: []json.RawMessage{inline, inline}, Stages: 4, Jobs: 2}},
		{"batch unknown backend", "/v1/batch", serve.BatchRequest{Models: []string{"ResNet50"}, Backend: "no-such-backend"}},
		{"backends", "/v1/backends", nil},
		{"stats", "/v1/stats", nil},
		// After stats, whose request count would move, and before metrics,
		// so the recording of every older exchange stays byte-identical.
		{"schedule trailing bytes", "/v1/schedule", `{"model":"VGG16"} trailing-garbage`},
		{"metrics", "/metrics", nil},
	}
	records := make([]wireRecord, 0, len(steps))
	for _, step := range steps {
		var (
			resp *http.Response
			data []byte
		)
		if step.body != nil {
			resp, data = postJSON(t, ts.URL+step.path, step.body)
		} else {
			var err error
			if resp, err = http.Get(ts.URL + step.path); err != nil {
				t.Fatal(err)
			}
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		rec := wireRecord{
			Name:        step.name,
			Status:      resp.StatusCode,
			ContentType: resp.Header.Get("Content-Type"),
			RetryAfter:  resp.Header.Get("Retry-After"),
		}
		if step.path == "/metrics" {
			rec.Series = metricSeries(data)
		} else {
			var v any
			decodeInto(t, data, &v)
			body, err := json.Marshal(normalizeWire(v))
			if err != nil {
				t.Fatal(err)
			}
			rec.Body = body
		}
		records = append(records, rec)
	}
	return records
}

// TestWireGolden holds statuses, the Content-Type and Retry-After
// headers, response bodies (time-valued fields zeroed) and the /metrics
// series set to the recording.
func TestWireGolden(t *testing.T) {
	got := wireScript(t)
	if *updateWireGolden {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, rec := range got {
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.WriteFile(wireGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []wireRecord
	decodeInto(t, data, &want)
	if len(got) != len(want) {
		t.Fatalf("script has %d exchanges, golden file %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name {
			t.Fatalf("exchange %d is %q, golden file has %q", i, g.Name, w.Name)
		}
		if g.Status != w.Status || g.ContentType != w.ContentType || g.RetryAfter != w.RetryAfter {
			t.Errorf("%s: status/content-type/retry-after = %d %q %q, want %d %q %q",
				w.Name, g.Status, g.ContentType, g.RetryAfter, w.Status, w.ContentType, w.RetryAfter)
		}
		if !bytes.Equal(g.Body, w.Body) {
			t.Errorf("%s: body differs\n got: %s\nwant: %s", w.Name, g.Body, w.Body)
		}
		for _, s := range g.Series {
			if !slices.Contains(w.Series, s) {
				t.Errorf("%s: series %s is not in the golden file", w.Name, s)
			}
		}
		for _, s := range w.Series {
			if !slices.Contains(g.Series, s) {
				t.Errorf("%s: series %s disappeared", w.Name, s)
			}
		}
	}
}
