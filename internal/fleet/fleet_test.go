package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/grid"
	"repro/internal/results"
)

// tinyCfgs builds n fast real workloads (distinct thread counts so their
// trial keys differ).
func tinyCfgs(n int) []bench.WorkloadConfig {
	cfgs := make([]bench.WorkloadConfig, n)
	for i := range cfgs {
		c := bench.DefaultWorkload(1 + i%4)
		c.KeyRange = 1 << 10
		c.Duration = 5 * time.Millisecond
		c.Seed = uint64(100 + i)
		cfgs[i] = c
	}
	return cfgs
}

// fakeTrial builds a plausible TrialResult for coordinator-level tests that
// never execute real workloads.
func fakeTrial(cfg bench.WorkloadConfig) bench.TrialResult {
	return bench.TrialResult{Scenario: cfg.Scenario, Seed: cfg.Seed, Ops: 1000, OpsPerSec: 1000}
}

func sortedKeys(st *results.Store) []string {
	keys := st.Keys()
	sort.Strings(keys)
	return keys
}

// startFleet serves coord over real HTTP for the duration of the test.
func startFleet(t *testing.T, coord *Coordinator) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newWorker(t *testing.T, base string, name string, seed uint64) *Worker {
	t.Helper()
	return &Worker{
		Client: &Client{Base: base, Timeout: 5 * time.Second, Retries: 2,
			RetryBase: 2 * time.Millisecond, Seed: seed},
		Runner:    &grid.Runner{},
		Name:      name,
		SpoolPath: filepath.Join(t.TempDir(), "spool.jsonl"),
	}
}

// TestFleetConvergesToSingleProcessResult is the core contract: a two-worker
// fleet sweep lands the exact record set a single-process Runner.Run of the
// same spec produces — same keys, one record per key, nothing lost.
func TestFleetConvergesToSingleProcessResult(t *testing.T) {
	cfgs := tinyCfgs(3)
	const trials = 2

	soloStore := results.NewMemStore()
	solo := &grid.Runner{Store: soloStore}
	if _, err := solo.Run(cfgs, trials); err != nil {
		t.Fatal(err)
	}

	fleetStore := results.NewMemStore()
	coord, err := NewCoordinator(cfgs, trials, CoordinatorConfig{Store: fleetStore, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]WorkerStats, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		w := newWorker(t, srv.URL, []string{"w1", "w2"}[i], uint64(i+1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if got, want := sortedKeys(fleetStore), sortedKeys(soloStore); !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet store keys diverge from single-process sweep:\n got %v\nwant %v", got, want)
	}
	for _, k := range fleetStore.Keys() {
		if n := len(fleetStore.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want exactly 1", k, n)
		}
	}
	st := coord.Status()
	if !st.Complete || st.Executed != 3*trials || st.Done != st.Total {
		t.Fatalf("status not converged: %+v", st)
	}
	if st.Duplicates != 0 || st.Reissued != 0 {
		t.Fatalf("healthy fleet saw duplicates/reissues: %+v", st)
	}
	if got := stats[0].Executed + stats[1].Executed; got != 3*trials {
		t.Fatalf("workers executed %d trials, want %d", got, 3*trials)
	}

	sums := coord.Summaries()
	if len(sums) != len(cfgs) {
		t.Fatalf("got %d summaries, want %d", len(sums), len(cfgs))
	}
	for i, s := range sums {
		if len(s.Trials) != trials {
			t.Fatalf("summary %d has %d trials, want %d", i, len(s.Trials), trials)
		}
		if s.MeanOps <= 0 {
			t.Fatalf("summary %d has no throughput: %+v", i, s)
		}
	}

	// Provenance rode along: every fleet record knows its worker and host.
	for _, rec := range fleetStore.Records() {
		if rec.Worker == "" {
			t.Fatalf("record %s lost its worker attribution", rec.Key)
		}
		if rec.Trial.Host == "" || rec.Trial.GoVersion == "" || rec.Trial.Procs <= 0 {
			t.Fatalf("record %s missing provenance: host=%q gover=%q procs=%d",
				rec.Key, rec.Trial.Host, rec.Trial.GoVersion, rec.Trial.Procs)
		}
	}
}

// TestLeaseExpiryReissuesTrial simulates a worker dying mid-trial: its lease
// expires (injected clock) and the trial is re-issued; the dead worker's late
// completion then resolves by key dedupe.
func TestLeaseExpiryReissuesTrial(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := results.NewMemStore()
	cfgs := tinyCfgs(1)
	coord, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: store, LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	l1, err := coord.Lease(LeaseRequest{Worker: "doomed"})
	if err != nil || l1.Status != StatusLease {
		t.Fatalf("first lease: %+v, %v", l1, err)
	}
	if wait, _ := coord.Lease(LeaseRequest{Worker: "second"}); wait.Status != StatusWait {
		t.Fatalf("second worker should wait while the trial is leased: %+v", wait)
	}

	now = now.Add(2 * time.Second) // the doomed worker never renews
	l2, err := coord.Lease(LeaseRequest{Worker: "second"})
	if err != nil || l2.Status != StatusLease {
		t.Fatalf("post-expiry lease: %+v, %v", l2, err)
	}
	if l2.Key != l1.Key {
		t.Fatalf("re-issued a different trial: %s vs %s", l2.Key, l1.Key)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("re-issue must mint a fresh lease id")
	}
	if st := coord.Status(); st.Reissued != 1 {
		t.Fatalf("reissued = %d, want 1", st.Reissued)
	}

	// The doomed worker finishes anyway (it was only slow, not dead): first
	// completion in wins, the second resolves as a duplicate.
	rec := results.NewRecord(l1.Config, fakeTrial(l1.Config))
	c1, err := coord.Complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "doomed", Key: l1.Key, Record: rec})
	if err != nil || !c1.Accepted || c1.Duplicate {
		t.Fatalf("late completion rejected: %+v, %v", c1, err)
	}
	c2, err := coord.Complete(CompleteRequest{LeaseID: l2.LeaseID, Worker: "second", Key: l2.Key, Record: rec})
	if err != nil || !c2.Accepted || !c2.Duplicate {
		t.Fatalf("race loser should dedupe: %+v, %v", c2, err)
	}
	if n := len(store.Get(l1.Key)); n != 1 {
		t.Fatalf("store has %d records for the raced key, want 1", n)
	}
	st := coord.Status()
	if !st.Complete || st.Duplicates != 1 || st.Executed != 1 {
		t.Fatalf("post-race status: %+v", st)
	}
}

// TestRenewExtendsLease: a renewing worker holds its lease past the TTL; a
// silent one loses it.
func TestRenewExtendsLease(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store, LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := coord.Lease(LeaseRequest{Worker: "slow"})
	now = now.Add(800 * time.Millisecond)
	if r := coord.Renew(RenewRequest{LeaseID: l.LeaseID, Worker: "slow"}); !r.OK {
		t.Fatalf("renew of a live lease failed: %+v", r)
	}
	now = now.Add(800 * time.Millisecond) // 1.6s after grant, 0.8s after renew
	if resp, _ := coord.Lease(LeaseRequest{Worker: "other"}); resp.Status != StatusWait {
		t.Fatalf("renewed lease was lost: %+v", resp)
	}
	now = now.Add(2 * time.Second)
	if r := coord.Renew(RenewRequest{LeaseID: l.LeaseID, Worker: "slow"}); r.OK {
		t.Fatal("renew of an expired lease must report OK=false")
	}
}

// TestCompleteUnknownKeyRejected: a worker talking to a coordinator that
// never expanded its trial gets a protocol rejection, not a crash.
func TestCompleteUnknownKeyRejected(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := coord.Complete(CompleteRequest{Worker: "stray", Key: "not-a-key", Record: results.Record{Key: "not-a-key"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted {
		t.Fatal("unknown key must be rejected")
	}
	if store.Len() != 0 {
		t.Fatal("rejected completion must not reach the store")
	}
}

// TestCompleteMismatchedRecordRejected: a completion whose record belongs to
// another trial must not mark the leased trial done. Accepting it would
// count the trial executed while the store holds nothing under its key, so
// Summaries would silently lose it. The rejection leaves the lease in
// place; expiry re-issues the trial as for any silent worker.
func TestCompleteMismatchedRecordRejected(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	store := results.NewMemStore()
	cfgs := tinyCfgs(2)
	coord, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: store, LeaseTTL: time.Second, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	l, err := coord.Lease(LeaseRequest{Worker: "confused", Capacity: -1})
	if err != nil || l.Status != StatusLease {
		t.Fatalf("lease: %+v, %v", l, err)
	}
	other := cfgs[0]
	if results.KeyOf(other) == l.Key {
		other = cfgs[1]
	}
	wrong := results.NewRecord(other, fakeTrial(other))
	forged := wrong
	forged.Key = l.Key // claims the leased key, but its config says otherwise
	for _, rec := range []results.Record{wrong, forged} {
		resp, err := coord.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "confused", Key: l.Key, Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted || resp.Done {
			t.Fatalf("completion with record %s for leased key %s = %+v, want rejected", rec.Key, l.Key, resp)
		}
	}
	if store.Len() != 0 {
		t.Fatalf("rejected completions reached the store (%d records)", store.Len())
	}
	st := coord.Status()
	if st.Executed != 0 || st.Done != 0 || st.Complete || st.Leased != 1 {
		t.Fatalf("rejection changed coordinator state: %+v", st)
	}
	now = now.Add(2 * time.Second)
	l2, err := coord.Lease(LeaseRequest{Worker: "honest", Capacity: -1})
	if err != nil || l2.Key != l.Key {
		t.Fatalf("expired lease not re-issued: %+v, %v", l2, err)
	}
	resp, err := coord.Complete(CompleteRequest{LeaseID: l2.LeaseID, Worker: "honest", Key: l2.Key,
		Record: results.NewRecord(l2.Config, fakeTrial(l2.Config))})
	if err != nil || !resp.Accepted {
		t.Fatalf("honest completion: %+v, %v", resp, err)
	}
	if n := len(store.Get(l.Key)); n != 1 {
		t.Fatalf("store holds %d records under the leased key, want 1", n)
	}
}

// TestLeaseSchemaSkewRejected: a worker built at another results schema
// would hash different TrialKeys, so the coordinator refuses it at its first
// lease with a 409 naming both versions — also when the request carries no
// schema at all — and the worker treats that as final and exits.
func TestLeaseSchemaSkewRejected(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)
	skewed := results.SchemaVersion + 1
	for _, body := range []string{
		fmt.Sprintf(`{"worker":"old","schema":%d}`, skewed),
		`{"worker":"older"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/lease", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("lease %s answered %d (%s), want 409", body, resp.StatusCode, msg)
		}
		if !strings.Contains(string(msg), strconv.Itoa(results.SchemaVersion)) {
			t.Fatalf("409 message %q does not name the coordinator schema", msg)
		}
	}

	// A whole worker at the skewed schema: rewrite its lease requests on
	// the way in, and expect Run to give up with the protocol error.
	rewrite := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lease" {
			var req map[string]any
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			req["schema"] = skewed
			b, _ := json.Marshal(req)
			r.Body = io.NopCloser(bytes.NewReader(b))
			r.ContentLength = int64(len(b))
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(rewrite.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = newWorker(t, rewrite.URL, "skewed", 3).Run(ctx)
	if err == nil || IsRPCError(err) || ctx.Err() != nil {
		t.Fatalf("skewed worker Run = %v, want a final protocol error", err)
	}
	for _, want := range []string{"409", strconv.Itoa(skewed), strconv.Itoa(results.SchemaVersion)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("worker error %q does not mention %s", err, want)
		}
	}
	if coord.Granted() != 0 || len(store.Journal()) != 0 {
		t.Fatalf("skewed worker was granted %d leases", coord.Granted())
	}
}

// TestLocalWorkerDrains pins degraded-local mode as `epochgrid -serve` runs
// it: a worker named "local" with unlimited capacity drains the whole sweep
// over HTTP through the same lease/complete state machine remote workers
// use — claims journaled, status converged, one record per key.
func TestLocalWorkerDrains(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(2), 2, CoordinatorConfig{Store: store, LeaseTTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	w := newWorker(t, startFleet(t, coord).URL, "local", 5)
	w.Capacity = -1
	w.SpoolPath = ""
	if _, err := w.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	st := coord.Status()
	if !st.Complete || st.Executed != 4 || st.Duplicates != 0 {
		t.Fatalf("local drain did not converge: %+v", st)
	}
	if coord.Granted() != 4 {
		t.Fatalf("granted %d leases, want 4", coord.Granted())
	}
	for _, k := range store.Keys() {
		if n := len(store.Get(k)); n != 1 {
			t.Fatalf("key %s has %d records, want 1", k, n)
		}
	}
	// Every grant left an auditable claim in the journal.
	claims := 0
	for _, rec := range store.Journal() {
		if rec.Kind == results.KindClaim && rec.Worker == "local" {
			claims++
		}
	}
	if claims != 4 {
		t.Fatalf("journaled %d local claims, want 4", claims)
	}
	// The status surface attributes the work to the local worker.
	found := false
	for _, w := range st.Workers {
		if w.Name == "local" && w.Done == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("status missing local worker attribution: %+v", st.Workers)
	}
}

// TestCoordinatorResumesFromStore is the crash-recovery contract: a
// coordinator restarted over the same store file skips everything already
// completed — a fully-done sweep resumes with zero work.
func TestCoordinatorResumesFromStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfgs := tinyCfgs(2)

	st1, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	// Drive the sweep by hand: lease everything, complete everything.
	for {
		l, err := coord1.Lease(LeaseRequest{Worker: "w1"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status == StatusDone {
			break
		}
		rec := results.NewRecord(l.Config, fakeTrial(l.Config))
		if resp, err := coord1.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w1", Key: l.Key, Record: rec}); err != nil || !resp.Accepted {
			t.Fatalf("complete: %+v, %v", resp, err)
		}
	}
	if st := coord1.Status(); !st.Complete || st.Executed != 2 {
		t.Fatalf("first pass did not complete: %+v", st)
	}
	st1.Close()

	// "Restart": a fresh store over the same file, a fresh coordinator over
	// the same spec.
	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	// The claims journaled by the first coordinator came back as journal
	// records — never as cache entries.
	if got := len(st2.Journal()); got != 2 {
		t.Fatalf("reloaded store has %d journal records, want 2 claims", got)
	}
	for _, j := range st2.Journal() {
		if j.Kind != results.KindClaim || j.Worker != "w1" || j.LeaseUntil == 0 {
			t.Fatalf("malformed claim journal record: %+v", j)
		}
	}
	if st2.Len() != 2 {
		t.Fatalf("reloaded store has %d result records, want 2", st2.Len())
	}

	coord2, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if !st.Complete || st.Cached != 2 || st.Executed != 0 {
		t.Fatalf("resume must satisfy everything from the store: %+v", st)
	}
	if l, _ := coord2.Lease(LeaseRequest{Worker: "w1"}); l.Status != StatusDone {
		t.Fatalf("resumed coordinator should answer done immediately: %+v", l)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("resumed coordinator's Done channel should be closed")
	}
}

// TestCoordinatorResumesPartialSweep: a coordinator killed mid-sweep re-runs
// only the incomplete trials.
func TestCoordinatorResumesPartialSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	cfgs := tinyCfgs(3)

	st1, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	// Complete exactly one trial, then "crash" (abandon coord1 with a trial
	// still leased — its claim is journaled but uncommitted).
	l1, _ := coord1.Lease(LeaseRequest{Worker: "w1"})
	coord1.Complete(CompleteRequest{LeaseID: l1.LeaseID, Worker: "w1", Key: l1.Key,
		Record: results.NewRecord(l1.Config, fakeTrial(l1.Config))})
	l2, _ := coord1.Lease(LeaseRequest{Worker: "w1"})
	if l2.Status != StatusLease {
		t.Fatalf("second lease: %+v", l2)
	}
	st1.Close()

	st2, err := results.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	coord2, err := NewCoordinator(cfgs, 1, CoordinatorConfig{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if st.Cached != 1 || st.Done != 1 || st.Complete {
		t.Fatalf("partial resume: %+v", st)
	}
	// The abandoned lease's trial is pending again — stale claims are audit
	// entries, not commitments.
	seen := map[string]bool{}
	for {
		l, err := coord2.Lease(LeaseRequest{Worker: "w2"})
		if err != nil {
			t.Fatal(err)
		}
		if l.Status == StatusDone {
			break
		}
		seen[l.Key] = true
		coord2.Complete(CompleteRequest{LeaseID: l.LeaseID, Worker: "w2", Key: l.Key,
			Record: results.NewRecord(l.Config, fakeTrial(l.Config))})
	}
	if !seen[l2.Key] {
		t.Fatalf("trial %s leased at crash time was never re-issued", short(l2.Key))
	}
	if st := coord2.Status(); !st.Complete || st.Executed != 2 || st.Cached != 1 {
		t.Fatalf("resumed sweep: %+v", st)
	}
}

// TestClientRetriesTransientServerErrors: the client survives a flaky
// endpoint by retrying with backoff, and gives up with a typed rpcError when
// the outage outlasts the budget.
func TestClientRetriesTransientServerErrors(t *testing.T) {
	store := results.NewMemStore()
	coord, err := NewCoordinator(tinyCfgs(1), 1, CoordinatorConfig{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	srv := startFleet(t, coord)

	ft := NewFaultTransport(nil, 42)
	cl := &Client{Base: srv.URL, HTTP: srv.Client(), Timeout: time.Second,
		Retries: 8, RetryBase: time.Millisecond, Seed: 7}
	cl.HTTP.Transport = ft

	ft.DropP = 0.5 // half the requests vanish; retries must absorb it
	if _, err := cl.Status(context.Background()); err != nil {
		t.Fatalf("status through lossy transport: %v", err)
	}

	ft.Sever()
	_, err = cl.Lease(context.Background(), LeaseRequest{Worker: "w"})
	if err == nil {
		t.Fatal("lease through severed transport must fail")
	}
	if !IsRPCError(err) {
		t.Fatalf("severed-transport failure should be an rpcError, got %T: %v", err, err)
	}
	ft.Heal()
	if _, err := cl.Lease(context.Background(), LeaseRequest{Worker: "w"}); err != nil {
		t.Fatalf("lease after heal: %v", err)
	}
}

// TestFaultTransportDeterminism: same seed, same request sequence, same
// fault decisions — the property that makes chaos runs replayable.
func TestFaultTransportDeterminism(t *testing.T) {
	draw := func(seed uint64) []bool {
		ft := NewFaultTransport(nil, seed)
		ft.DropP = 0.3
		out := make([]bool, 64)
		for i := range out {
			out[i] = ft.roll() < ft.DropP
		}
		return out
	}
	if !reflect.DeepEqual(draw(99), draw(99)) {
		t.Fatal("same seed must replay the same fault sequence")
	}
	if reflect.DeepEqual(draw(99), draw(100)) {
		t.Fatal("different seeds should diverge")
	}
}
