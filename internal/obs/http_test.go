package obs

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// A scrape arriving while hot paths are registering and incrementing
// instruments must return a well-formed document (and stay clean under
// the race detector, which make verify runs this package with).
func TestMetricsScrapeWhileWriting(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter(fmt.Sprintf("scrape_race_total_%d", w), "scrape race test counter.", RankLabel(w))
			h := reg.Histogram(fmt.Sprintf("scrape_race_seconds_%d", w), "scrape race test histogram.", LatencyBuckets, RankLabel(w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%10) / 1000)
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %d returned %d", i, resp.StatusCode)
		}
		if i > 5 && !strings.Contains(string(body), "scrape_race_total_0") {
			t.Fatalf("scrape %d missing registered series:\n%.400s", i, body)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFlightRecHandler(t *testing.T) {
	prev := GlobalFlightRecorder()
	defer SetGlobalFlightRecorder(prev)

	// Detached: 404 with a hint.
	SetGlobalFlightRecorder(nil)
	rr := httptest.NewRecorder()
	FlightRecHandler(rr, httptest.NewRequest(http.MethodGet, "/debug/flightrec", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("detached handler returned %d, want 404", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "-flightrec") {
		t.Fatalf("detached response missing hint: %q", rr.Body.String())
	}

	// Attached: text dump by default, JSON with ?format=json.
	f := NewFlightRecorder(64)
	f.Record(FlightEvent{Kind: FlightSend, Rank: 2, Peer: 5, Tag: 9, Bytes: 1024})
	SetGlobalFlightRecorder(f)

	rr = httptest.NewRecorder()
	FlightRecHandler(rr, httptest.NewRequest(http.MethodGet, "/debug/flightrec", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("text handler returned %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text content type = %q", ct)
	}
	if body := rr.Body.String(); !strings.Contains(body, "send") || !strings.Contains(body, "peer=5") {
		t.Fatalf("text dump missing event:\n%s", body)
	}

	rr = httptest.NewRecorder()
	FlightRecHandler(rr, httptest.NewRequest(http.MethodGet, "/debug/flightrec?format=json", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("json handler returned %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("json content type = %q", ct)
	}
	if body := rr.Body.String(); !strings.Contains(body, `"kind":"send"`) || !strings.Contains(body, `"peer":5`) {
		t.Fatalf("json dump missing event:\n%s", body)
	}
}

// The mounted server must expose /debug/flightrec alongside /metrics.
func TestServeMountsFlightRec(t *testing.T) {
	prev := GlobalFlightRecorder()
	defer SetGlobalFlightRecorder(prev)
	f := NewFlightRecorder(64)
	f.Record(FlightEvent{Kind: FlightSever, Rank: 1, Peer: 0})
	SetGlobalFlightRecorder(f)

	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "sever") {
		t.Fatalf("served flightrec = %d:\n%s", resp.StatusCode, body)
	}
}
