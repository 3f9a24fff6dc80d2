package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ppep/internal/daemon"
)

// TestServeConcurrentEndpointReaders hammers the read-only endpoints
// from several goroutines while the daemon loop runs, pinning — under
// -race — that the handler path (Counters snapshot, ring snapshot,
// EngineStats) is torn-read-free against the sampling goroutine. Run
// under -race, this test is the module's only check of that invariant.
func TestServeConcurrentEndpointReaders(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(d, Options{})
	h := srv.Handler()

	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	const (
		readers = 4
		iters   = 100
	)
	paths := []string{"/metrics", "/reports", "/reports/latest", "/healthz", "/predict?vf=3", "/predict/batch"}
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				path := paths[(r+i)%len(paths)]
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
				switch rr.Code {
				case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
					// 404/503 are legitimate before the first interval
					// completes or while the loop reports stale.
				default:
					t.Errorf("%s returned %d mid-run", path, rr.Code)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("loop did not stop after cancellation")
	}
}

// TestPredictBatchConcurrentSwaps decodes binary batch responses while
// the daemon keeps publishing new tables, pinning — under -race — that
// the snapshot swap is torn-read-free: every response a reader decodes
// is a complete, internally consistent table (all five rows, in order,
// seq never going backwards within one reader), never a blend of two
// intervals.
func TestPredictBatchConcurrentSwaps(t *testing.T) {
	d, err := daemon.AttachOpts(busyChip(t), models(t), nil, daemon.Options{HistoryCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv := New(d, Options{})
	h := srv.Handler()

	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	const (
		readers = 4
		iters   = 100
	)
	nStates := len(d.Models.Table)
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for i := 0; i < iters; i++ {
				req := httptest.NewRequest(http.MethodGet, "/predict/batch", nil)
				req.Header.Set("Accept", BatchContentType)
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code == http.StatusNotFound {
					continue // before the first interval
				}
				tab, err := DecodeBatch(rr.Body.Bytes())
				if err != nil {
					t.Errorf("iter %d: %v", i, err)
					return
				}
				if len(tab.Rows) != nStates {
					t.Errorf("iter %d: %d rows, want %d", i, len(tab.Rows), nStates)
					return
				}
				for j, row := range tab.Rows {
					if int(row.VF) != j+1 {
						t.Errorf("iter %d: row %d carries VF %v — torn table", i, j, row.VF)
						return
					}
				}
				if tab.Seq < lastSeq {
					t.Errorf("iter %d: seq went backwards %d -> %d", i, lastSeq, tab.Seq)
					return
				}
				lastSeq = tab.Seq
			}
		}()
	}
	wg.Wait()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("loop did not stop after cancellation")
	}
}
