package daemon

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestDaemonConcurrentReaders stresses every read-side API while Run
// mutates the ring and counters, pinning — under -race — that Counters
// snapshots, ring reads, and engine-stat reads are torn-read-free. The
// small HistoryCap keeps the ring evicting while readers snapshot it,
// and the Seq contiguity check catches a renumbering or half-pushed
// record that the race detector alone would miss.
func TestDaemonConcurrentReaders(t *testing.T) {
	d, err := AttachOpts(busyChip(t, false), models(t), nil, Options{HistoryCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()

	const (
		readers = 4
		iters   = 150
	)
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			var lastSeq, lastIntervals uint64
			for i := 0; i < iters; i++ {
				snap := d.Counters().Snapshot()
				if snap.Intervals < lastIntervals {
					t.Errorf("Intervals went backwards: %d after %d", snap.Intervals, lastIntervals)
					return
				}
				lastIntervals = snap.Intervals

				recs := d.Records()
				for j := 1; j < len(recs); j++ {
					if recs[j].Seq != recs[j-1].Seq+1 {
						t.Errorf("ring snapshot not contiguous: seq %d follows %d", recs[j].Seq, recs[j-1].Seq)
						return
					}
				}
				if rec, ok := d.Latest(); ok {
					if rec.Seq < lastSeq {
						t.Errorf("Latest seq went backwards: %d after %d", rec.Seq, lastSeq)
						return
					}
					lastSeq = rec.Seq
					if rec.Report == nil {
						t.Error("Latest returned a record with nil report")
						return
					}
				}
				_ = d.EngineStats()
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
