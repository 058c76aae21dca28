// Response framing: every JSON answer goes out sized and in one piece,
// and every 405 names the methods the endpoint does serve.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"respect/internal/cluster"
	"respect/internal/models"
	"respect/internal/serve"
)

// exchange sends one request with an optional raw body and returns the
// response with its body read.
func exchange(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// checkSized holds one response to the framing contract: a
// Content-Length equal to the body, no transfer coding, the JSON content
// type, and a body that is one compact JSON value plus a newline.
func checkSized(t *testing.T, name string, wantStatus int, resp *http.Response, data []byte) {
	t.Helper()
	if resp.StatusCode != wantStatus {
		t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, wantStatus, data)
	}
	if resp.ContentLength != int64(len(data)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", name, resp.ContentLength, resp.TransferEncoding, len(data))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", name, ct)
	}
	value, ok := bytes.CutSuffix(data, []byte("\n"))
	var compact bytes.Buffer
	if !ok || json.Compact(&compact, value) != nil || !bytes.Equal(compact.Bytes(), value) {
		t.Errorf("%s: body is not one compact JSON value and a newline: %q", name, data)
	}
}

var framingGate = &gate{}

// TestResponsesAreSized walks every JSON endpoint through its answers: a
// 200, 400, 404, 405, 413 and 429 from schedule and batch, the GET
// endpoints, the periodic lifecycle, a relayed answer and the cluster
// endpoints. ResNet152's answer is larger than net/http's 2 KB buffer,
// so without a Content-Length it would go out chunked.
func TestResponsesAreSized(t *testing.T) {
	registerBackend(t, gatedBackend{name: "e2e-gate-framing", g: framingGate})
	started, release := framingGate.arm()
	classes := serve.DefaultClasses()
	classes["held"] = serve.ClassPolicy{Budget: 10 * time.Second, Backends: []string{"e2e-gate-framing"}, MaxConcurrent: 1}
	_, ts := newTestServer(t, serve.Config{
		WarmModels:   []string{},
		MaxBodyBytes: 4096,
		Classes:      classes,
		RT:           serve.RTConfig{Enabled: true},
	})
	huge := `{"model":"` + strings.Repeat("x", 8192) + `"}`

	// The one slot of "held" stays taken until release closes, so both
	// endpoints answer 429 on that class.
	held := make(chan struct{})
	go func() {
		defer close(held)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", strings.NewReader(`{"model":"Xception","class":"held"}`))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	steps := []struct {
		name, method, path, body string
		want                     int
	}{
		{"schedule by name", "POST", "/v1/schedule", `{"model":"ResNet152","stages":4}`, 200},
		{"schedule by name (hit)", "POST", "/v1/schedule", `{"model":"ResNet152","stages":4}`, 200},
		{"schedule trace", "POST", "/v1/schedule", `{"model":"MobileNet","trace":true}`, 200},
		{"schedule bad JSON", "POST", "/v1/schedule", `{"model":`, 400},
		{"schedule unknown model", "POST", "/v1/schedule", `{"model":"NoSuchNet"}`, 404},
		{"schedule GET", "GET", "/v1/schedule", "", 405},
		{"schedule oversize", "POST", "/v1/schedule", huge, 413},
		{"schedule held class", "POST", "/v1/schedule", `{"model":"ResNet50","class":"held"}`, 429},
		{"batch", "POST", "/v1/batch", `{"models":["ResNet152","Xception"]}`, 200},
		{"batch bad JSON", "POST", "/v1/batch", `[`, 400},
		{"batch unknown model", "POST", "/v1/batch", `{"models":["NoSuchNet"]}`, 404},
		{"batch GET", "GET", "/v1/batch", "", 405},
		{"batch oversize", "POST", "/v1/batch", huge, 413},
		{"batch held class", "POST", "/v1/batch", `{"models":["ResNet50"],"class":"held"}`, 429},
		{"backends", "GET", "/v1/backends", "", 200},
		{"stats", "GET", "/v1/stats", "", 200},
		{"periodic register", "POST", "/v1/periodic", `{"name":"cam","model":"ResNet50","period_ms":50,"cost_ms":5}`, 201},
		{"periodic list", "GET", "/v1/periodic", "", 200},
		{"periodic remove", "DELETE", "/v1/periodic/cam", "", 200},
		{"periodic remove unknown", "DELETE", "/v1/periodic/cam", "", 404},
	}
	for _, step := range steps {
		resp, data := exchange(t, step.method, ts.URL+step.path, step.body)
		checkSized(t, step.name, step.want, resp, data)
	}
	close(release)
	<-held

	srvs, urls, _ := newPair(t, serve.Config{WarmModels: []string{}})
	for _, step := range []struct {
		name, method, path, body string
	}{
		{"cluster heartbeat", "GET", cluster.HeartbeatPath, ""},
	} {
		resp, data := exchange(t, step.method, urls[0]+step.path, step.body)
		checkSized(t, step.name, 200, resp, data)
	}
	// Replica 0 owns ResNet152, so replica 1 relays its answer.
	wantOwner(t, srvs[0], "ResNet152", models.MustLoad("ResNet152").Fingerprint(), 0)
	resp, data := exchange(t, "POST", urls[1]+"/v1/schedule", `{"model":"ResNet152"}`)
	if resp.Header.Get(serve.ForwardedToHeader) == "" {
		t.Error("ResNet152 via replica 1 was not relayed")
	}
	checkSized(t, "relayed schedule", 200, resp, data)
}

// TestMethodNotAllowedNamesAllow sends every endpoint each method it does
// not serve: the answer is a 405 whose Allow header lists the methods it
// does serve, with an ErrorResponse body.
func TestMethodNotAllowedNamesAllow(t *testing.T) {
	_, urls, _ := newPair(t, serve.Config{WarmModels: []string{}, RT: serve.RTConfig{Enabled: true}})
	endpoints := []struct {
		path  string
		allow []string
	}{
		{"/v1/schedule", []string{"POST"}},
		{"/v1/batch", []string{"POST"}},
		{"/v1/backends", []string{"GET"}},
		{"/v1/stats", []string{"GET"}},
		{"/v1/periodic", []string{"GET", "POST"}},
		{"/v1/periodic/cam", []string{"DELETE"}},
		{cluster.HeartbeatPath, []string{"GET"}},
	}
	methods := []string{"GET", "POST", "PUT", "PATCH", "DELETE"}
	for _, ep := range endpoints {
		for _, method := range methods {
			if slices.Contains(ep.allow, method) {
				continue
			}
			resp, data := exchange(t, method, urls[0]+ep.path, "")
			name := method + " " + ep.path
			checkSized(t, name, http.StatusMethodNotAllowed, resp, data)
			if got, want := resp.Header.Get("Allow"), strings.Join(ep.allow, ", "); got != want {
				t.Errorf("%s: Allow %q, want %q", name, got, want)
			}
			var e serve.ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("%s: body without an error: %s", name, data)
			}
		}
	}
}
