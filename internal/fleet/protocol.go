// Package fleet turns the content-addressed results store into a
// distributed coordination substrate: a small HTTP coordinator that owns one
// sweep (expanded trial configs + the store) and hands trials to worker
// processes under time-bounded leases, and a worker that pulls leases, runs
// each trial through the grid runner's per-trial path (grid.Runner.Execute —
// the worker uses the Runner's retry policy only, not its OnProgress, store
// or counters), and streams completed records back.
//
// The robustness model is the same one the harness applies to reclaimers
// (bench/faults): every process in the fleet is an adversary candidate.
//
//   - A worker that dies mid-trial (kill -9) simply stops renewing its
//     lease; the lease expires and the coordinator re-issues the trial.
//   - Duplicate completions from lease races resolve by content addressing:
//     the trial key IS the result's identity, so the store's merge-dedupe
//     (AppendIfAbsent) keeps exactly one record per key no matter how many
//     workers report it.
//   - Worker↔coordinator RPCs carry context deadlines and retry with
//     seeded-jitter exponential backoff; an injectable fault transport
//     (drop/delay/duplicate/sever, seeded like bench/faults) makes the RPC
//     layer itself chaos-testable in-process.
//   - A worker that loses the coordinator degrades gracefully: it finishes
//     its leased trial, spools the record to a local JSONL, and replays the
//     spool when the coordinator comes back.
//   - The coordinator trusts no worker: a lease request from another
//     results schema is refused (409), and a completion whose record is
//     not the completed key's trial is rejected and its lease left to
//     expire.
//   - The coordinator journals lease claims — and persists completions —
//     through the same crash-safe O_APPEND log as every other sweep, so a
//     coordinator killed mid-sweep restarts with `-serve` against the same
//     store and resumes, skipping everything already done.
//
// The serial, single-process path is untouched: fleet is a layer over
// grid.ExpandTasks and results.Store, not a change to either's semantics,
// and a fleet sweep converges to the exact record set a single-process sweep
// of the same spec produces.
package fleet

import (
	"repro/internal/bench"
	"repro/internal/results"
)

// Lease states returned by the coordinator.
const (
	// StatusLease: a trial is attached; run it and Complete before the
	// lease expires (or Renew along the way).
	StatusLease = "lease"
	// StatusWait: every remaining trial is currently leased to someone
	// else; poll again after RetryMs.
	StatusWait = "wait"
	// StatusDone: the sweep is complete; the worker should exit.
	StatusDone = "done"
)

// LeaseRequest asks the coordinator for one trial.
type LeaseRequest struct {
	// Worker is the requesting worker's self-chosen name, journaled with
	// the claim for audit.
	Worker string `json:"worker"`
	// Schema is the worker's results.SchemaVersion, stamped by Client.Lease.
	// The coordinator refuses (409) a lease to a worker built at any other
	// version — including one that sends none — since its records would
	// hash to different TrialKeys.
	Schema int `json:"schema"`
	// Capacity is the worker's advertised thread capacity (typically its
	// GOMAXPROCS). The coordinator grants the costliest pending trial whose
	// Threads fit the capacity, so big trials land on big workers while
	// small workers stay busy on small ones. Advisory, not a hard wall:
	// <= 0 means unlimited, and when nothing fits the coordinator grants
	// the cheapest pending trial anyway — an undersized worker runs a trial
	// slowly rather than the sweep stalling forever.
	Capacity int `json:"capacity,omitempty"`
}

// LeaseResponse carries a granted lease (StatusLease) or a polling
// instruction (StatusWait/StatusDone).
type LeaseResponse struct {
	Status string `json:"status"`
	// LeaseID identifies the grant for Renew/Complete. Unique per grant —
	// a re-issued trial gets a fresh lease id.
	LeaseID string `json:"lease_id,omitempty"`
	// Key is the trial's content address (results.KeyOf of Config),
	// precomputed coordinator-side so both ends agree on identity.
	Key string `json:"key,omitempty"`
	// Config is the effective trial configuration, to run verbatim.
	Config bench.WorkloadConfig `json:"config,omitempty"`
	// ExpiresUnixNano is the lease deadline on the coordinator's clock.
	// Advisory for the worker (clocks may skew): renew at a fraction of
	// the TTL, and treat a missed renewal as survivable — a late
	// completion still lands via key dedupe.
	ExpiresUnixNano int64 `json:"expires_unix_ns,omitempty"`
	// RetryMs is the suggested poll delay for StatusWait.
	RetryMs int `json:"retry_ms,omitempty"`
}

// RenewRequest extends a held lease.
type RenewRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

// RenewResponse reports whether the lease still existed. OK=false means the
// lease expired and the trial may have been re-issued; the worker should
// finish and Complete anyway (dedupe keeps the result single).
type RenewResponse struct {
	OK              bool  `json:"ok"`
	ExpiresUnixNano int64 `json:"expires_unix_ns,omitempty"`
}

// CompleteRequest delivers a finished trial's record (regular or
// quarantine).
type CompleteRequest struct {
	LeaseID string         `json:"lease_id,omitempty"`
	Worker  string         `json:"worker"`
	Key     string         `json:"key"`
	Record  results.Record `json:"record"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted is false for a key the coordinator has never heard of (e.g.
	// the worker is talking to a coordinator restarted with a different
	// sweep) and for a record that is not the keyed trial's (its own key or
	// its config's key differs from Key). A rejected completion changes
	// nothing: the lease stays, expires, and the trial is re-issued.
	Accepted bool `json:"accepted"`
	// Duplicate means the trial was already done (lease race, replayed
	// spool); the record was discarded by key dedupe. Not an error.
	Duplicate bool `json:"duplicate,omitempty"`
	// Done hints that the sweep is now complete, so the worker can exit
	// without another lease round-trip.
	Done bool `json:"done,omitempty"`
}

// StatusResponse is the coordinator's observable state (GET /v1/status).
type StatusResponse struct {
	// Total counts expanded trials; Executed+Cached+Quarantined partition
	// the completed ones. Cached trials were satisfied from the store at
	// startup (resume); Quarantined failed permanently (fresh or cached).
	Total, Executed, Cached, Quarantined int
	// Done is how many trials are complete (= Executed+Cached+Quarantined).
	Done int
	// Leased is the number of leases currently outstanding.
	Leased int
	// Duplicates counts completions discarded by key dedupe; Reissued
	// counts lease expiries that put a trial back in the pending pool.
	// Both are expected to be non-zero under chaos and zero in a healthy
	// fleet.
	Duplicates, Reissued int
	// Complete is true when every trial is done.
	Complete bool
	// ETASeconds is the cost-model estimate of remaining sweep wall time:
	// the summed estimated cost of not-yet-done trials divided by the
	// fleet's observed completion throughput. 0 means unknown (nothing
	// completed yet, or the sweep is already done).
	ETASeconds float64 `json:",omitempty"`
	// Workers reports per-worker completion activity, sorted by name.
	Workers []WorkerStatus `json:",omitempty"`
}

// WorkerStatus is one worker's completion record as the coordinator saw it.
type WorkerStatus struct {
	// Name is the worker's self-chosen name from its lease requests.
	Name string
	// Done counts completions accepted from this worker (duplicates
	// excluded).
	Done int
	// RatePerSec is Done divided by the worker's observed active span
	// (first lease to last completion); 0 until the span is measurable.
	RatePerSec float64 `json:",omitempty"`
}
