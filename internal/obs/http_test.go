package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestMetricsHandler(t *testing.T) {
	r := goldenRegistry()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := WritePrometheus(&want, r); err != nil {
		t.Fatal(err)
	}
	if string(body) != want.String() {
		t.Errorf("handler body:\n%s\nwant:\n%s", body, want.String())
	}
}

func TestDebugServerServesMetricsAndPprof(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	ds, err := StartDebugServer("127.0.0.1:0", r, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	// pprof index must answer; the 1-second CPU profile is exercised by
	// the CI smoke (too slow for a unit test).
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ status = %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", code)
	}
	// The flight recorder endpoint exists even without a recorder wired in
	// and serves a valid empty snapshot.
	if code, body := get("/debug/flightrecorder"); code != 200 || !strings.Contains(body, `"queries": 0`) {
		t.Errorf("/debug/flightrecorder = %d %q", code, body)
	}
}

func TestDebugServerServesFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(8, 4)
	q := fr.Begin("window")
	q.Access(0, false, 0)
	q.SetResults(2)
	q.End()
	ds, err := StartDebugServer("127.0.0.1:0", nil, fr)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	resp, err := http.Get("http://" + ds.Addr + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type = %q, want JSON", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Queries uint64 `json:"queries"`
		Recent  []struct {
			Name    string `json:"name"`
			Results int    `json:"results"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("endpoint body invalid JSON: %v\n%s", err, body)
	}
	if dump.Queries != 1 || len(dump.Recent) != 1 || dump.Recent[0].Name != "window" || dump.Recent[0].Results != 2 {
		t.Errorf("endpoint dump = %+v", dump)
	}
}
