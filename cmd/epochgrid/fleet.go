package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/grid"
	"repro/internal/results"
)

// Distributed sweeps: `epochgrid -serve :PORT` turns the process into the
// sweep's coordinator (it owns the store and hands trials out under leases);
// `epochgrid -worker URL` turns it into a worker (it pulls leases, runs
// trials through the same per-trial path as a local sweep, and streams
// records back). Both sides survive the other dying: see internal/fleet.

// drainGrace is how long the coordinator keeps serving after the sweep
// completes, so idle workers polling for leases hear "done" instead of a
// connection error and exit cleanly.
const drainGrace = 2 * time.Second

// runServe drives a sweep as its coordinator: expand the spec, resume from
// the store, serve leases until every trial is done, then emit the same
// summaries (and greppable grid line) a single-process sweep would. When no
// worker leases anything within localGrace, the process degrades to local
// mode — it also drains the sweep itself, as an in-process fleet worker
// connected to its own listener, so a -serve invocation with no fleet still
// finishes (late workers can still join; all lease from the same pool).
func runServe(addr string, spec grid.Spec, storePath string, leaseTTL, deadline, localGrace time.Duration,
	retries int, backoff time.Duration, format, outPath string, progress bool) int {
	if storePath == "" {
		fmt.Fprintln(os.Stderr, "epochgrid: -serve requires -store (the journal is what makes the coordinator crash-safe)")
		return 2
	}
	st, err := results.Open(storePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	defer st.Close()

	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	cc := fleet.CoordinatorConfig{Store: st, LeaseTTL: leaseTTL, Deadline: deadline}
	if progress {
		cc.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	coord, err := fleet.NewCoordinator(spec.Expand(), trials, cc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fleet: coordinating on %s (store %s, lease ttl %v)\n",
		ln.Addr(), storePath, leaseTTL)

	t0 := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if localGrace > 0 {
		// Degraded-local mode: if the grace window passes with zero leases
		// granted, no worker is coming — serve and also drain. The local
		// worker talks to this process's own listener over loopback, so it
		// takes the same lease/renew/complete/journal path a remote worker
		// does, and a worker joining mid-drain just shares the remaining
		// trials.
		go func() {
			t := time.NewTimer(localGrace)
			defer t.Stop()
			select {
			case <-t.C:
			case <-coord.Done():
				return
			case <-ctx.Done():
				return
			}
			if coord.Granted() > 0 {
				return
			}
			fmt.Fprintf(os.Stderr, "fleet: no worker leased within %v; draining locally\n", localGrace)
			host := "127.0.0.1"
			tcp := ln.Addr().(*net.TCPAddr)
			if !tcp.IP.IsUnspecified() {
				host = tcp.IP.String()
			}
			local := &fleet.Worker{
				Client: &fleet.Client{
					Base:    "http://" + net.JoinHostPort(host, strconv.Itoa(tcp.Port)),
					Retries: -1, RetryBase: backoff, Seed: seedFor("local"),
				},
				Runner:   &grid.Runner{Retries: retries, Backoff: backoff},
				Name:     "local",
				Capacity: -1,
				Logf:     cc.Logf,
			}
			if _, err := local.Run(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintf(os.Stderr, "fleet: local drain: %v\n", err)
			}
		}()
	}
	select {
	case <-coord.Done():
	case <-ctx.Done():
		// Interrupted mid-sweep: shut down without emitting. Everything
		// completed so far is journaled; a restarted -serve resumes from it.
		srv.Close()
		fmt.Fprintln(os.Stderr, "fleet: interrupted; sweep state journaled, re-run -serve to resume")
		return 1
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "epochgrid: serve: %v\n", err)
		return 1
	}
	// Keep serving for the drain grace so idle workers' next lease poll
	// hears "done" (shutting down immediately would close the listener and
	// strand them in their reconnect loops), then close.
	time.Sleep(drainGrace)
	_ = srv.Close()

	stStatus := coord.Status()
	sums := coord.Summaries()
	out, cleanup, err := openOut(outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	defer cleanup()
	if err := emit(out, format, sums, stStatus.Executed, stStatus.Cached); err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "grid: configs=%d trials=%d executed=%d cached=%d quarantined=%d wall=%v\n",
		len(sums), stStatus.Total, stStatus.Executed, stStatus.Cached, stStatus.Quarantined,
		time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "fleet: leases reissued=%d duplicate completions=%d\n",
		stStatus.Reissued, stStatus.Duplicates)
	if stStatus.Quarantined > 0 {
		return 3
	}
	return 0
}

// runWorker drains a coordinator until its sweep is done. SIGINT/SIGTERM
// cancel cleanly: the current trial's lease simply expires and is re-issued
// elsewhere. SIGKILL needs no handling — that is the lease's whole job.
func runWorker(base string, retries int, backoff time.Duration, name, spoolFlag string,
	capacity int, progress bool) int {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	spool := spoolFlag
	switch spool {
	case "":
		spool = filepath.Join(os.TempDir(),
			fmt.Sprintf("epochgrid-spool-%s.jsonl", sanitize(name)))
	case "none":
		spool = ""
	}
	w := &fleet.Worker{
		Client: &fleet.Client{
			Base: base, Timeout: 10 * time.Second, Retries: -1,
			RetryBase: backoff, Seed: seedFor(name),
		},
		Runner:    &grid.Runner{Retries: retries, Backoff: backoff},
		Name:      name,
		SpoolPath: spool,
		Capacity:  capacity,
	}
	if progress {
		w.Logf = func(f string, args ...any) { fmt.Fprintf(os.Stderr, f+"\n", args...) }
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stats, err := w.Run(ctx)
	fmt.Fprintf(os.Stderr, "fleet-worker %s: executed=%d quarantined=%d duplicates=%d rejected=%d spooled=%d replayed=%d reconnects=%d\n",
		name, stats.Executed, stats.Quarantined, stats.Duplicates, stats.Rejected,
		stats.Spooled, stats.Replayed, stats.Reconnects)
	if err != nil {
		fmt.Fprintf(os.Stderr, "epochgrid: worker: %v\n", err)
		return 1
	}
	if stats.Quarantined > 0 {
		return 3
	}
	return 0
}

// seedFor decorrelates a worker's RPC jitter from its peers' by name and
// pid, so a fleet launched from one script never retries in lockstep.
func seedFor(name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, os.Getpid())
	return h.Sum64()
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
