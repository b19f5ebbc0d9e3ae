package main

import (
	"testing"
	"time"
)

// TestBatchSmoke runs a few sweep runs on two slots, traced and untraced,
// and checks they succeed with identical report digests; with -race it
// covers the pool and span log.
func TestBatchSmoke(t *testing.T) {
	runs := sweepRuns(1)[:6]
	plain, _ := runPass(runs, 2, false, nil)
	traced, _ := runPass(runs, 2, true, newSpanLog())
	for i := range runs {
		if plain[i].err != nil || traced[i].err != nil {
			t.Fatalf("%s: %v / %v", runs[i], plain[i].err, traced[i].err)
		}
		if plain[i].digest != traced[i].digest {
			t.Errorf("%s: tracing changed the report digest", runs[i])
		}
	}
}

// TestServeSmoke drives a short, slow schedule (slow enough for -race)
// against an in-process server and checks every job succeeds and the cache
// was used.
func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server for a few seconds")
	}
	ls, err := startServer(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runServe(ls, 1, 10, 4*time.Second, 2, 2, newSpanLog())
	ls.stop()
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, j := range res.jobs {
		if j.err != nil {
			t.Error(j.err)
		}
		if j.hit {
			hits++
		}
	}
	if hits == 0 || res.counters["serve_cache_misses_total"] == 0 {
		t.Errorf("%d hits, %v misses: the schedule should exercise both", hits, res.counters["serve_cache_misses_total"])
	}
}
