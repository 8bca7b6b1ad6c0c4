// Package good shows the cancellable counterparts of every retrymisuse
// violation: retry delays always race a cancellation channel.
package good

import (
	"context"
	"errors"
	"time"
)

var errUnavailable = errors.New("unavailable")

func call() error { return errUnavailable }

// sleepCtx is the canonical cancellable delay: a timer raced against
// ctx.Done(), mirrored from the service client's WaitJob poll loop.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryWithBackoff delays between attempts through sleepCtx, so the loop
// dies with its context.
func retryWithBackoff(ctx context.Context) error {
	for i := 0; i < 5; i++ {
		if err := call(); err == nil {
			return nil
		}
		if err := sleepCtx(ctx, 100*time.Millisecond); err != nil {
			return err
		}
	}
	return errUnavailable
}

// selectWithDone pairs the After receive with a ctx.Done() case — the
// cancellable form of the bad package's selectNoDone.
func selectWithDone(ctx context.Context, results <-chan int) (int, error) {
	for {
		select {
		case v := <-results:
			return v, nil
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// stopChannelLoop receives from a conventional struct{} stop channel,
// which counts as a cancellation escape just like ctx.Done().
func stopChannelLoop(stop <-chan struct{}, tick func()) {
	for {
		select {
		case <-stop:
			return
		case <-time.After(10 * time.Millisecond):
			tick()
		}
	}
}

// tickerLoop uses a Ticker, the non-leaking way to pace periodic work;
// ticker channels are not After calls and are not flagged.
func tickerLoop(ctx context.Context, tick func()) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			tick()
		case <-ctx.Done():
			return
		}
	}
}
