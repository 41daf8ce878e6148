package harness

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"realtor/internal/fuzzscen"
)

// A probed, context-carrying run must be indistinguishable from a plain
// one on the deterministic backend: same stats, clean oracle, and
// progress snapshots that advance monotonically.
func TestRunCheckedOptsProgressIsTransparent(t *testing.T) {
	s := fuzzscen.Generate(3)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			plain, err := RunChecked(SimSharded(shards), s, fuzzscen.Builder(s))
			if err != nil {
				t.Fatal(err)
			}
			var snaps []Progress
			probed, err := RunCheckedOpts(SimSharded(shards), s, fuzzscen.Builder(s), RunOptions{
				Ctx:        context.Background(),
				OnProgress: func(p Progress) { snaps = append(snaps, p) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if probed.Stats != plain.Stats {
				t.Fatalf("probed run diverged:\n%+v\n%+v", probed.Stats, plain.Stats)
			}
			if len(snaps) < 2 {
				t.Fatalf("expected several snapshots, got %d", len(snaps))
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].Now < snaps[i-1].Now {
					t.Fatalf("progress clock went backwards: %v -> %v", snaps[i-1].Now, snaps[i].Now)
				}
			}
			if last := snaps[len(snaps)-1]; last.Stats != plain.Stats {
				t.Fatalf("final snapshot stats diverged:\n%+v\n%+v", last.Stats, plain.Stats)
			}
		})
	}
}

// Cancelling mid-run yields ErrCanceled and no Outcome — a partial run
// must never look like a completed one.
func TestRunCheckedOptsCancelReturnsErrCanceled(t *testing.T) {
	s := fuzzscen.Generate(3)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			calls := 0
			out, err := RunCheckedOpts(SimSharded(shards), s, fuzzscen.Builder(s), RunOptions{
				Ctx: ctx,
				OnProgress: func(Progress) {
					calls++
					if calls == 2 {
						cancel()
					}
				},
			})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if out.Stats.Offered != 0 || len(out.Violations) != 0 {
				t.Fatalf("cancelled run leaked an outcome: %+v", out)
			}
		})
	}
}

// The live backend honors cancellation too: the drive stops submitting
// and RunCheckedOpts reports ErrCanceled.
func TestLiveCancelReturnsErrCanceled(t *testing.T) {
	s := fuzzscen.Generate(3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	out, err := RunCheckedOpts(Live(), s, fuzzscen.Builder(s), RunOptions{
		Ctx: ctx,
		OnProgress: func(Progress) {
			select {
			case <-done:
			default:
				close(done)
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if out.Stats.Offered != 0 {
		t.Fatalf("cancelled live run leaked an outcome: %+v", out)
	}
}
