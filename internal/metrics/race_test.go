package metrics

import (
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestConcurrentScrapeWhileLabeledWrites hammers labeled-metric
// updates — including fresh label-set interning, which exercises the
// copy-on-write publish — against Snapshot, the text writer, and the
// HTTP handler. Run under -race this is the scrape-while-write gate
// for the lock-free child tables.
func TestConcurrentScrapeWhileLabeledWrites(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("race_verdicts")
	bytes := r.CounterVec("race_bytes")
	hv := r.HistogramVec("race_latency")
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	const (
		writers    = 8
		perWriter  = 400
		scrapes    = 40
		labelSlots = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l := Labels{
					Home:    fmt.Sprintf("h%d", (w*perWriter+i)%labelSlots),
					Verdict: "allow",
				}
				cv.With(l).Inc()
				bytes.With(l).Add(int64(i))
				hv.With(l).ObserveExemplar(time.Duration(i)*time.Microsecond, uint64(i)+1)
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				snap := r.Snapshot()
				if err := WriteText(io.Discard, snap); err != nil {
					t.Errorf("WriteText: %v", err)
				}
				resp, err := srv.Client().Get(srv.URL + "?format=json")
				if err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	s := r.Snapshot()
	var total int64
	for _, c := range s.Counters {
		if c.Name == "race_verdicts" {
			total += c.Value
		}
	}
	if want := int64(writers * perWriter); total != want {
		t.Fatalf("counter sum across children = %d, want %d", total, want)
	}
	// A scrape racing the writers must still satisfy the snapshot
	// invariant Count == ΣBuckets for every histogram child.
	for _, h := range s.Histograms {
		var sum uint64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum != h.Count {
			t.Fatalf("histogram %s%s: Count=%d != ΣBuckets=%d", h.Name, labelKey(h.Labels), h.Count, sum)
		}
	}
}
