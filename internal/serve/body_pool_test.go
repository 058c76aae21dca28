package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// chunked hides a reader's length, so the request goes out with chunked
// transfer encoding and no Content-Length.
type chunked struct{ io.Reader }

// TestOversizeChunkedBodyIs413AndNotPooled: without a Content-Length the
// only bound on a body is http.MaxBytesReader, which must still answer
// 413; and the buffer that body grew, past maxPooledBodyBytes, must not
// come back out of the pool to be pinned at that size.
func TestOversizeChunkedBodyIs413AndNotPooled(t *testing.T) {
	const limit = 2 * maxPooledBodyBytes
	srv, err := New(Config{WarmModels: []string{}, MaxBodyBytes: limit})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Valid JSON all the way, so only its size can be the complaint.
	huge := append([]byte(`{"model":"`), bytes.Repeat([]byte("x"), limit)...)
	huge = append(huge, `"}`...)
	for _, path := range []string{"/v1/schedule", "/v1/batch"} {
		resp, err := http.Post(ts.URL+path, "application/json", chunked{bytes.NewReader(huge)})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d for a %d-byte chunked body, want 413", path, resp.StatusCode, len(huge))
		}
	}
	// The handlers have returned, so whatever they released is in the
	// pool. Draw more buffers than they could have put there.
	for i := 0; i < 8; i++ {
		if buf := bodyPool.Get().(*bytes.Buffer); buf.Cap() > maxPooledBodyBytes {
			t.Fatalf("the pool handed back a %d-byte buffer, above the %d-byte cap", buf.Cap(), maxPooledBodyBytes)
		}
	}

	// A body under the cap does go back, and is reset when reused.
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader([]byte(`{"model":"VGG16"}`)))
		buf, err := srv.readBody(httptest.NewRecorder(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got := buf.String(); got != `{"model":"VGG16"}` {
			t.Fatalf("read %q", got)
		}
		releaseBody(buf)
	}
}

// TestWriteJSONEncodeErrorIs500: the body is encoded into a pooled buffer
// before the status line, so a value with no JSON form becomes a sized
// 500 with an error instead of a 200 with an empty body.
func TestWriteJSONEncodeErrorIs500(t *testing.T) {
	for _, v := range []any{ScheduleResponse{ElapsedMS: math.NaN()}, map[string]float64{"x": math.Inf(1)}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError ||
			!strings.Contains(e.Error, "unsupported value") || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("%T: status %d, headers %v, body %q", v, rec.Code, rec.Header(), rec.Body.Bytes())
		}
	}
}
