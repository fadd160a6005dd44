package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strconv"
	"testing"
	"time"

	"serretime"
)

// s27 is the netlist the submit-limit tests post: 17 nodes, so the
// default analysis (15 frames × 4 words) stays far inside the budget.
func s27(t testing.TB) []byte {
	t.Helper()
	body, err := os.ReadFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// newDiskServer boots a server whose store journals to a temp dir.
func newDiskServer(t testing.TB) (*Server, *httptest.Server) {
	st, _, _ := openStore(t, t.TempDir())
	return newTestServer(t, Config{Workers: 1, Timeout: time.Minute, Store: st})
}

// post sends body to url and decodes the JSON reply into v.
func post(t testing.TB, url, contentType string, body []byte, v any) int {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("POST %s: HTTP %d, body is not JSON: %v\n%.300s", url, resp.StatusCode, err, data)
	}
	return resp.StatusCode
}

// TestSubmitLimits: an epsilon that would overflow the clock period and
// analysis sizes whose signature plane exceeds the budget answer 400 of
// class parse at submit, at session open and on a delta that sets
// options, before any solve, and the store stays on disk. (At the parent
// of this check, epsilon=1e308 was accepted, finished with a NaN ΔSER
// the journal could not encode, and degraded the store to memory.)
func TestSubmitLimits(t *testing.T) {
	svc, ts := newDiskServer(t)
	body := s27(t)
	for _, q := range []string{"epsilon=1e308", "epsilon=150", "words=16777216", "frames=9000000&words=1"} {
		var e errorResponse
		if code := post(t, ts.URL+"/v1/retime?"+q, "text/plain", body, &e); code != http.StatusBadRequest || e.Class != "parse" {
			t.Errorf("submit %s: HTTP %d class %q (%s), want 400 parse", q, code, e.Class, e.Error)
		}
		if code := post(t, ts.URL+"/v1/sessions?"+q, "text/plain", body, &e); code != http.StatusBadRequest || e.Class != "parse" {
			t.Errorf("session open %s: HTTP %d class %q (%s), want 400 parse", q, code, e.Class, e.Error)
		}
	}
	var open openSessionResponse
	if code := post(t, ts.URL+"/v1/sessions?frames=2&words=1", "text/plain", body, &open); code != http.StatusCreated {
		t.Fatalf("session open: HTTP %d", code)
	}
	var e errorResponse
	if code := post(t, ts.URL+"/v1/sessions/"+open.ID+"/delta?words=16777216", "application/json", []byte(`{"ops":[]}`), &e); code != http.StatusBadRequest || e.Class != "parse" {
		t.Errorf("delta words=16777216: HTTP %d class %q (%s), want 400 parse", code, e.Class, e.Error)
	}
	if mode, _, _ := svc.StoreStatus(); mode != StoreDisk {
		t.Errorf("store mode %s, want disk", mode)
	}
	svc.mu.Lock()
	accepted := svc.accepted
	svc.mu.Unlock()
	if accepted != 0 {
		t.Errorf("%d jobs accepted, want none", accepted)
	}
}

// FuzzSubmitOptions posts s27 under a fuzzed query string to a server
// with a disk store and holds the submit contract through the solve:
// every rejection is a 400 of class parse, every accepted job reaches
// done or failed, its status body decodes as JSON, a done job's result
// parses, and the store stays on disk. Inputs whose frames × words
// exceed 64 (the default 15 × 4 is 60) are skipped, so no exec
// allocates much.
func FuzzSubmitOptions(f *testing.F) {
	for _, q := range []string{
		"", "epsilon=1e308", "frames=-1", "accuracy=fast", "algorithm=minarea",
		"engine=forest", "verify=true", "timeout=1ms", "colour=blue",
	} {
		f.Add(q)
	}
	body := s27(f)
	svc, ts := newDiskServer(f)
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			t.Skip()
		}
		size := func(key string, def int) int {
			if n, err := strconv.Atoi(q.Get(key)); err == nil && n != 0 {
				return n
			}
			return def
		}
		frames, words := size("frames", serretime.DefaultFrames), size("words", serretime.DefaultSignatureWords)
		if frames > 64 || words > 64 || frames*words > 64 {
			t.Skip()
		}
		var msg struct {
			submitResponse
			Class string `json:"class"`
		}
		code := post(t, ts.URL+"/v1/retime?"+q.Encode(), "text/plain", body, &msg)
		switch code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusBadRequest:
			if msg.Class != "parse" {
				t.Fatalf("%q: 400 of class %q", query, msg.Class)
			}
			return
		default:
			t.Fatalf("%q: HTTP %d (class %q)", query, code, msg.Class)
		}
		j, ok := svc.Job(msg.ID)
		if !ok {
			t.Fatalf("%q: accepted job %s is not in the table", query, msg.ID)
		}
		select {
		case <-j.Done:
		case <-time.After(time.Minute):
			t.Fatalf("%q: job still running after a minute", query)
		}
		data, _ := fetchBody(t, ts.URL+"/v1/jobs/"+msg.ID)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("%q: status body is not JSON: %v\n%.300s", query, err, data)
		}
		switch v.Status {
		case StateDone.String():
			res, _ := fetchBody(t, ts.URL+"/v1/jobs/"+msg.ID+"/result")
			if _, err := serretime.Parse(bytes.NewReader(res), "result.bench"); err != nil {
				t.Fatalf("%q: result does not parse: %v", query, err)
			}
		case StateFailed.String():
		default:
			t.Fatalf("%q: finished job reads %q", query, v.Status)
		}
		if mode, _, _ := svc.StoreStatus(); mode != StoreDisk {
			t.Fatalf("%q: store mode %s, want disk", query, mode)
		}
	})
}
