// Fuzz targets for the serving API's request decoding: /v1/schedule and
// /v1/batch face arbitrary client bytes, so the decode-and-validate path
// must never panic and every outcome — success, validation rejection or
// decode failure — must be a well-formed JSON response with an HTTP
// status, mirroring the wire-message fuzzing in internal/cluster.
package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"respect/internal/serve"
)

// fuzzPost drives one endpoint with arbitrary bodies through the
// in-process handler (no network) and checks the response invariants.
func fuzzPost(f *testing.F, path string) {
	f.Helper()
	srv, err := serve.New(serve.Config{WarmModels: []string{}})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		resp := rec.Result()
		defer resp.Body.Close()
		if resp.StatusCode < 200 || resp.StatusCode > 599 {
			t.Fatalf("status %d outside the HTTP range", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("non-JSON content type %q (status %d)", ct, resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Fatalf("status %d with invalid JSON body: %q", resp.StatusCode, data)
		}
		// Rejections must say why — a bare status starves clients of the
		// validation detail every error path is supposed to carry.
		if resp.StatusCode >= 400 {
			var e serve.ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Fatalf("status %d without a populated error body: %s", resp.StatusCode, data)
			}
		}
	})
}

func FuzzScheduleRequest(f *testing.F) {
	tiny := `{"name":"t","nodes":[{"name":"a","param_bytes":10},{"name":"b","param_bytes":10}],"edges":[[0,1]]}`
	f.Add([]byte(`{"model":"ResNet50","stages":4}`))
	f.Add([]byte(`{"graph":` + tiny + `,"stages":2}`))
	f.Add([]byte(`{"model":"ResNet50","graph":` + tiny + `}`))
	f.Add([]byte(`{"model":"ResNet50","class":"platinum"}`))
	f.Add([]byte(`{"model":"ResNet50","backends":["nope"]}`))
	f.Add([]byte(`{"model":"ResNet50","stages":100000}`))
	f.Add([]byte(`{"moodel":"ResNet50"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(strings.Repeat("[", 64)))
	f.Add([]byte(`{"graph":{"name":"g","nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,1],[1,0]]}}`))
	f.Add([]byte(`{"graph":{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[]]}}`))
	// Regression: json.Decoder stopped at the closing brace, so anything
	// after it was accepted.
	f.Add([]byte(`{"model":"VGG16"} trailing-garbage`))
	f.Add([]byte(`{"graph":{"nodes":[{"name":"a","param_bytes":-5},{"name":"b"}],"edges":[[0,1]]},"stages":2}`))
	f.Add([]byte(`{"graph":null,"graph":` + tiny + `,"Model":"x"}`))
	fuzzPost(f, "/v1/schedule")
}

func FuzzBatchRequest(f *testing.F) {
	tiny := `{"name":"t","nodes":[{"name":"a","param_bytes":10},{"name":"b","param_bytes":10}],"edges":[[0,1]]}`
	f.Add([]byte(`{"models":["ResNet50"],"stages":4}`))
	f.Add([]byte(`{"graphs":[` + tiny + `],"stages":2}`))
	f.Add([]byte(`{"models":["ResNet50"],"graphs":[` + tiny + `]}`))
	f.Add([]byte(`{"models":[],"graphs":[]}`))
	f.Add([]byte(`{"models":["ResNet50"],"stages":-1}`))
	f.Add([]byte(`{"graphs":[{"name":"g","nodes":[],"edges":[]}]}`))
	// Regression: an empty edge pair decodes as the self edge (0,0),
	// which once panicked graph.ReadJSON instead of erroring.
	f.Add([]byte(`{"graphs":[{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[]]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(strings.Repeat("{", 64)))
	f.Add([]byte(`{"models":["VGG16"]} trailing-garbage`))
	f.Add([]byte(`{"graphs":[{"nodes":[{"name":"a","param_bytes":-5},{"name":"b"}],"edges":[[0,1]]}],"stages":2}`))
	f.Add([]byte(`{"graphs":[` + tiny + `,{"nodes":7},null],"graphs":null}`))
	fuzzPost(f, "/v1/batch")
}
