package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"flatdd/internal/serve"
)

// fakeService answers submits with finished jobs and results that match a
// reference whose whole weight sits on |0...0>. Its first submit stalls.
func fakeService(stall time.Duration) *httptest.Server {
	var first atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
		now := time.Now()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.JobView{ID: "j1", State: serve.StateDone, Cache: serve.CacheHit, SubmittedAt: now, FinishedAt: &now}) //nolint:errcheck // test server
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res := serve.JobResult{ID: "j1", Shots: map[string]int{fmt.Sprintf("%0*b", serveQubits, 0): serveShots}}
		for i := 0; i < serveTop; i++ {
			a := serve.AmpView{Basis: fmt.Sprintf("%0*b", serveQubits, i)}
			if i == 0 {
				a.Re, a.Probability = 1, 1
			}
			res.Top = append(res.Top, a)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res) //nolint:errcheck // test server
	})
	return httptest.NewServer(mux)
}

func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := fakeService(stall)
	defer srv.Close()
	ref := make([]complex128, 1<<serveQubits)
	ref[0] = 1
	in := &serveInputs{qasm: []string{"OPENQASM 2.0;"}}
	for i := 0; i < 5; i++ {
		in.schedule = append(in.schedule, arrival{due: time.Duration(i) * 20 * time.Millisecond, tenant: "hot"})
	}
	// One connection: the jobs due while the first one stalls queue behind
	// it, as they would behind a stalled server.
	recs, start := runLoad(context.Background(), srv.URL, in, [][]complex128{ref}, 1, false, 1, nil)
	for i, r := range recs {
		if !r.ok() {
			t.Fatalf("job %d: %v", i, r.err)
		}
		// Each job's latency runs from its due time, so it carries the
		// stall it waited behind, not just its own near-zero service time.
		if got, floor := r.latency(), stall-r.due; got < floor {
			t.Errorf("job %d due at %v: latency %v, want at least %v", i, r.due, got, floor)
		}
		if got := r.latency(); got != r.terminalAt.Sub(start.Add(r.due)) {
			t.Errorf("job %d: latency %v is not measured from the due time", i, got)
		}
	}
	// The generator itself kept to the schedule: it did not wait for the
	// stalled job before sending the next ones.
	for i, lag := range genLagMs(recs) {
		if lag > 100 {
			t.Errorf("job %d sent %.1f ms late", i, lag)
		}
	}
}

func TestGeneratorLatenessReported(t *testing.T) {
	due := time.Unix(1000, 0)
	recs := []*jobRecord{
		{dueAt: due, sent: due},
		{dueAt: due, sent: due.Add(7 * time.Millisecond)},
	}
	if got := genLagMs(recs); !reflect.DeepEqual(got, []float64{0, 7}) {
		t.Errorf("lag = %v, want [0 7]", got)
	}
	failed := &jobRecord{dueAt: due, sent: due, err: fmt.Errorf("refused")}
	if latencyMs(failed.latency()) <= latencyMs(latencyLimit) {
		t.Error("a failed job must count as missing the latency limit")
	}
}

func TestServeScheduleDependsOnSeed(t *testing.T) {
	a, err := serveSchedule(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := serveSchedule(1, 2)
	c, _ := serveSchedule(2, 2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.qasm, c.qasm) || reflect.DeepEqual(a.schedule, c.schedule) {
		t.Error("a different seed gave the same circuits or the same schedule")
	}
	// The offered load is fixed; only its spacing and content vary.
	if len(a.schedule) != len(c.schedule) {
		t.Errorf("job counts differ between seeds: %d vs %d", len(a.schedule), len(c.schedule))
	}
	distinct := map[string]bool{}
	for _, j := range a.schedule {
		if j.tenant == "cold" {
			if distinct[a.qasm[j.circuit]] {
				t.Fatal("a cold job repeats a circuit")
			}
			distinct[a.qasm[j.circuit]] = true
		} else if j.circuit >= hotPool {
			t.Fatalf("hot job draws circuit %d outside the pool", j.circuit)
		}
	}
}
