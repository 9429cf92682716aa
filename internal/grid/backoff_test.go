package grid

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

var errTrial = errors.New("injected trial failure")

func TestBackoffDelaysDoubleWithEqualJitter(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 1)
	for i := 0; i < 6; i++ {
		d := b.Delay()
		base := 100 * time.Millisecond << uint(i)
		if d < base/2 || d >= base {
			t.Fatalf("attempt %d: delay %v outside equal-jitter window [%v, %v)", i, d, base/2, base)
		}
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a, b := NewBackoff(time.Millisecond, 42), NewBackoff(time.Millisecond, 42)
	for i := 0; i < 10; i++ {
		if da, db := a.Delay(), b.Delay(); da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	c := NewBackoff(time.Millisecond, 43)
	same := true
	a.Reset()
	a = NewBackoff(time.Millisecond, 42)
	for i := 0; i < 10; i++ {
		if a.Delay() != c.Delay() {
			same = false
		}
	}
	if same {
		t.Fatal("adjacent seeds produced identical jitter streams")
	}
}

func TestBackoffCapsAndSurvivesOverflow(t *testing.T) {
	b := NewBackoff(10*time.Second, 7)
	for i := 0; i < 80; i++ { // far past the shift-overflow point
		if d := b.Delay(); d <= 0 || d >= backoffCap {
			t.Fatalf("attempt %d: delay %v outside (0, %v)", i, d, backoffCap)
		}
	}
}

func TestBackoffResetRewindsDoublingNotJitter(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, 9)
	first := b.Delay()
	for i := 0; i < 4; i++ {
		b.Delay()
	}
	b.Reset()
	again := b.Delay()
	base := 100 * time.Millisecond
	if again < base/2 || again >= base {
		t.Fatalf("post-Reset delay %v not back in the base window [%v, %v)", again, base/2, base)
	}
	if again == first {
		t.Fatal("Reset must not replay the jitter stream (got the identical first delay)")
	}
}

func TestBackoffSleepCancellable(t *testing.T) {
	b := NewBackoff(time.Hour, 3) // would block forever if not cancellable
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Sleep(ctx) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Sleep returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled Sleep did not return")
	}
}

func TestExecuteRunsConfigVerbatim(t *testing.T) {
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		return bench.TrialResult{Scenario: cfg.Scenario, Seed: cfg.Seed, Ops: 1}, nil
	})
	r := &Runner{}
	for i, cfg := range twoConfigs() {
		rec, n, err := r.Execute(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Quarantined || n != 1 {
			t.Fatalf("config %d: quarantined=%v attempts=%d, want a record after 1 attempt", i, rec.Quarantined, n)
		}
		if want := results.KeyOf(cfg); rec.Key != want {
			t.Fatalf("config %d key %s, want %s (configs must run verbatim)", i, rec.Key, want)
		}
	}
}

func TestExecuteQuarantinesPermanentFailure(t *testing.T) {
	calls := 0
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		calls++
		return bench.TrialResult{}, errTrial
	})
	r := &Runner{Retries: 2, Backoff: time.Microsecond}
	rec, n, err := r.Execute(context.Background(), twoConfigs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || n != 3 {
		t.Fatalf("failing trial ran %d times (reported %d), want 1 + 2 retries", calls, n)
	}
	if !rec.Quarantined || rec.Error != errTrial.Error() {
		t.Fatalf("permanent failure must return a quarantine record: %+v", rec)
	}
}

func TestExecuteCanceledMidBackoffReturnsNoRecord(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	swapRunTrial(t, func(cfg bench.WorkloadConfig) (bench.TrialResult, error) {
		cancel() // fail, then die while the retry backoff sleeps
		return bench.TrialResult{}, errTrial
	})
	r := &Runner{Retries: 5, Backoff: time.Hour}
	rec, _, err := r.Execute(ctx, twoConfigs()[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute returned %v, want context.Canceled", err)
	}
	if rec.Key != "" || rec.Quarantined {
		t.Fatalf("canceled trial must return no record (lease expiry re-issues it): %+v", rec)
	}
	if r.Quarantines() != 0 {
		t.Fatal("a canceled retry is not a quarantine — the failure was never final")
	}
}
