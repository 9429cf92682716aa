package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/results"
)

// WorkerStats is what one worker did over a Run.
type WorkerStats struct {
	// Executed and Quarantined count trials this worker ran (successful /
	// permanently failed).
	Executed, Quarantined int
	// Duplicates counts completions the coordinator discarded by dedupe
	// (this worker lost a lease race — the work was wasted but harmless).
	Duplicates int
	// Spooled counts records written to the local spool because the
	// coordinator was unreachable; Replayed counts spooled records later
	// delivered.
	Spooled, Replayed int
	// Rejected counts completions the coordinator refused (unknown key —
	// e.g. it was restarted with a different sweep).
	Rejected int
	// Reconnects counts degraded→healthy transitions.
	Reconnects int
}

// Worker pulls leased trials from a coordinator and executes them through
// the grid runner's per-trial path, Runner.Execute (panic recovery, watchdog,
// bounded retry with cancellable jittered backoff). Its loop is lease →
// Execute → complete, with a local JSONL spool as the completion fallback: a
// worker that loses the coordinator finishes its leased trial, spools the
// record, and replays the spool on reconnect — losing nothing — while its
// expired lease lets the rest of the fleet make progress (at worst
// duplicating work the dedupe then discards). A worker is serial by design:
// a fleet's parallelism is N workers, each honestly loaded with one trial,
// so the coordinator's lease table is the single source of truth about
// in-flight work.
type Worker struct {
	// Client is the RPC client; required (its Base addresses the
	// coordinator).
	Client *Client
	// Runner supplies the per-trial execution policy (Retries, Backoff)
	// through Runner.Execute. Its Store, OnProgress and counters are unused —
	// the coordinator owns persistence and WorkerStats counts this worker's
	// trials. Nil means a zero Runner (no retries).
	Runner *grid.Runner
	// Name identifies this worker in claims and logs; "" means
	// "host:pid".
	Name string
	// SpoolPath is the local JSONL file for records that could not be
	// delivered; "" disables spooling (undeliverable records are dropped —
	// the lease expiry will re-issue the trial elsewhere).
	SpoolPath string
	// RenewEvery is the lease-renewal period while a trial runs; <= 0
	// derives it from the lease expiry (a third of the remaining TTL).
	RenewEvery time.Duration
	// Capacity is the thread capacity this worker advertises in lease
	// requests, steering cost-aware placement: the coordinator grants it
	// the costliest trial whose Threads fit. 0 means GOMAXPROCS; negative
	// means unlimited (accept anything).
	Capacity int
	// Logf, when set, receives one line per worker event.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	stats    WorkerStats
	degraded bool
	doneHint bool // a completion response said the sweep is over
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) name() string {
	if w.Name != "" {
		return w.Name
	}
	host, _ := os.Hostname()
	return fmt.Sprintf("%s:%d", host, os.Getpid())
}

// Run drains the coordinator until the sweep is done or ctx is canceled,
// returning what this worker accomplished. Transport loss mid-sweep is not
// an error — the worker degrades, spools, reconnects, and keeps going; only
// cancellation and protocol-level rejections (a 4xx such as a schema
// mismatch) end the run early.
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	r := w.Runner
	if r == nil {
		r = &grid.Runner{}
	}
	reconnect := grid.NewBackoff(250*time.Millisecond, w.Client.Seed^0xf1eed)
	for {
		lease, ok, err := w.lease(ctx, reconnect)
		if err != nil || !ok {
			return w.Stats(), err
		}
		stopRenewal := w.startRenewal(ctx, lease)
		rec, _, err := r.Execute(ctx, lease.Config)
		stopRenewal()
		if err == nil {
			err = w.complete(ctx, lease, rec)
		}
		if err != nil {
			// A canceled backoff or a stop order: the failure was never
			// final, so nothing is reported — the lease will expire and the
			// trial will be re-issued elsewhere.
			return w.Stats(), err
		}
	}
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// lease obtains the next trial: replay any spool first (the reconnect
// contract), then poll the coordinator through wait states and outages until
// a lease (ok), done (!ok), or cancellation.
func (w *Worker) lease(ctx context.Context, reconnect *grid.Backoff) (LeaseResponse, bool, error) {
	capacity := w.Capacity
	if capacity == 0 {
		capacity = runtime.GOMAXPROCS(0)
	}
	for {
		if err := ctx.Err(); err != nil {
			return LeaseResponse{}, false, err
		}
		if w.doneHint {
			// A completion response already said the sweep is over — exit
			// without another round trip (the coordinator may be gone by now).
			return LeaseResponse{}, false, nil
		}
		if w.replaySpool(ctx) {
			// Spool fully drained (or empty): the link is healthy.
			w.healed(reconnect)
		}
		resp, err := w.Client.Lease(ctx, LeaseRequest{Worker: w.name(), Capacity: capacity})
		if err != nil {
			if ctx.Err() != nil {
				return LeaseResponse{}, false, ctx.Err()
			}
			if !IsRPCError(err) {
				return LeaseResponse{}, false, err
			}
			// Coordinator unreachable: degraded mode. Keep trying — it
			// journals its state and is built to come back.
			w.degrade(err)
			if err := reconnect.Sleep(ctx); err != nil {
				return LeaseResponse{}, false, err
			}
			continue
		}
		w.healed(reconnect)
		switch resp.Status {
		case StatusDone:
			return LeaseResponse{}, false, nil
		case StatusWait:
			retry := time.Duration(resp.RetryMs) * time.Millisecond
			if retry <= 0 {
				retry = 100 * time.Millisecond
			}
			t := time.NewTimer(retry)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return LeaseResponse{}, false, ctx.Err()
			}
		case StatusLease:
			w.logf("fleet-worker %s: leased %s (%s)", w.name(),
				results.Label(resp.Config), short(resp.Key))
			return resp, true, nil
		default:
			return LeaseResponse{}, false, fmt.Errorf("fleet: unknown lease status %q", resp.Status)
		}
	}
}

// complete reports the finished trial, spooling on coordinator loss.
func (w *Worker) complete(ctx context.Context, lease LeaseResponse, rec results.Record) error {
	if err := ctx.Err(); err != nil {
		// Cancellation is a stop order, not an outage: drop the record (the
		// lease will expire and the trial will be re-issued) and unwind.
		return err
	}
	w.mu.Lock()
	if rec.Quarantined {
		w.stats.Quarantined++
	} else {
		w.stats.Executed++
	}
	w.mu.Unlock()
	resp, err := w.Client.Complete(ctx, CompleteRequest{
		LeaseID: lease.LeaseID, Worker: w.name(), Key: lease.Key, Record: rec,
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !IsRPCError(err) {
			return err
		}
		w.degrade(err)
		w.spool(rec, lease.Key)
		return nil
	}
	w.acknowledge(resp)
	return nil
}

// acknowledge folds a completion response into the stats.
func (w *Worker) acknowledge(resp CompleteResponse) {
	if resp.Done {
		w.doneHint = true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !resp.Accepted {
		w.stats.Rejected++
	} else if resp.Duplicate {
		w.stats.Duplicates++
	}
}

// degrade notes a lost coordinator (once per outage).
func (w *Worker) degrade(err error) {
	w.mu.Lock()
	first := !w.degraded
	w.degraded = true
	w.mu.Unlock()
	if first {
		w.logf("fleet-worker %s: coordinator unreachable (%v); degrading — will spool and reconnect", w.name(), err)
	}
}

// healed notes a recovered coordinator and resets the reconnect backoff.
func (w *Worker) healed(reconnect *grid.Backoff) {
	w.mu.Lock()
	was := w.degraded
	w.degraded = false
	if was {
		w.stats.Reconnects++
	}
	w.mu.Unlock()
	if was {
		reconnect.Reset()
		w.logf("fleet-worker %s: coordinator back; reconnected", w.name())
	}
}

// startRenewal keeps lease alive while its trial runs, until the returned
// stop function is called. Renewal failures are survivable by design (dedupe
// absorbs a re-issued trial), so errors are logged and otherwise ignored.
func (w *Worker) startRenewal(ctx context.Context, lease LeaseResponse) (stop func()) {
	every := w.RenewEvery
	if every <= 0 {
		if exp := time.Until(time.Unix(0, lease.ExpiresUnixNano)); exp > 0 {
			every = exp / 3
		}
		if every <= 0 {
			every = 5 * time.Second
		}
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				resp, err := w.Client.Renew(ctx, RenewRequest{LeaseID: lease.LeaseID, Worker: w.name()})
				if err != nil {
					w.logf("fleet-worker %s: renew %s failed: %v", w.name(), lease.LeaseID, err)
				} else if !resp.OK {
					w.logf("fleet-worker %s: lease %s expired server-side; finishing anyway (dedupe)", w.name(), lease.LeaseID)
				}
			}
		}
	}()
	return func() { close(done) }
}

// spool appends an undeliverable record to the local JSONL spool. Same
// crash-safety contract as the store: O_APPEND, one line per write.
func (w *Worker) spool(rec results.Record, key string) {
	if w.SpoolPath == "" {
		w.logf("fleet-worker %s: no spool configured; dropping record %s (lease expiry will re-issue)",
			w.name(), short(key))
		return
	}
	f, err := os.OpenFile(w.SpoolPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		w.logf("fleet-worker %s: opening spool: %v", w.name(), err)
		return
	}
	defer f.Close()
	b, err := json.Marshal(rec)
	if err != nil {
		w.logf("fleet-worker %s: encoding spool record: %v", w.name(), err)
		return
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		w.logf("fleet-worker %s: writing spool: %v", w.name(), err)
		return
	}
	w.mu.Lock()
	w.stats.Spooled++
	w.mu.Unlock()
	w.logf("fleet-worker %s: spooled %s to %s", w.name(), short(key), w.SpoolPath)
}

// replaySpool re-delivers spooled records, rewriting the spool with whatever
// still cannot be delivered. Returns true when the spool is empty afterward
// (including the trivially-empty case). Duplicate acknowledgements are
// normal: the trial may have been re-issued and completed elsewhere while
// this worker was partitioned.
func (w *Worker) replaySpool(ctx context.Context) bool {
	if w.SpoolPath == "" {
		return true
	}
	data, err := os.ReadFile(w.SpoolPath)
	if err != nil || len(data) == 0 {
		return true
	}
	var recs []results.Record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec results.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn spool line (killed mid-write): the record was never acknowledged anywhere; drop
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		os.Remove(w.SpoolPath)
		return true
	}
	var remaining []results.Record
	for i, rec := range recs {
		if ctx.Err() != nil {
			remaining = append(remaining, recs[i:]...)
			break
		}
		resp, err := w.Client.Complete(ctx, CompleteRequest{
			Worker: w.name(), Key: rec.Key, Record: rec,
		})
		if err != nil {
			remaining = append(remaining, recs[i:]...)
			break
		}
		w.acknowledge(resp)
		w.mu.Lock()
		w.stats.Replayed++
		w.mu.Unlock()
		w.logf("fleet-worker %s: replayed spooled %s", w.name(), short(rec.Key))
	}
	if len(remaining) == 0 {
		os.Remove(w.SpoolPath)
		return true
	}
	if len(remaining) == len(recs) {
		// Nothing delivered: the spool already holds exactly the undelivered
		// records, and rewriting it would open a window in which it is empty.
		return false
	}
	// Rewrite the spool to only the undelivered tail. A crash between
	// delivery and this rewrite re-replays a delivered record later — which
	// dedupes — so the spool never loses a record, only occasionally repeats
	// one. (Write-then-rename would be atomic but gains nothing over that
	// guarantee here.)
	f, err := os.Create(w.SpoolPath)
	if err != nil {
		return false
	}
	defer f.Close()
	for _, rec := range remaining {
		b, err := json.Marshal(rec)
		if err != nil {
			continue
		}
		f.Write(append(b, '\n'))
	}
	return false
}

// short truncates a key for logs.
func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
