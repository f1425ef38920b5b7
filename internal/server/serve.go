package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// Serve is the daemon and gateway lifecycle: it serves hs until
// SIGINT or SIGTERM, then stops accepting connections, finishes
// in-flight HTTP exchanges and drains q, all within drainTimeout. Each
// lifecycle line goes to stderr prefixed with prog; banner is the line
// logged as the listener starts. It returns the process exit status:
// 0 on a clean drain, 1 when the listener fails or the drain is
// incomplete.
func Serve(prog string, hs *http.Server, q *jobs.Queue, drainTimeout time.Duration, banner string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "%s: %s\n", prog, banner)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// Listener failed before any signal (port in use, etc.).
		fmt.Fprintf(os.Stderr, "%s: serve: %v\n", prog, err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "%s: signal received; draining (budget %v)\n", prog, drainTimeout)

	drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	shutdownErr := hs.Shutdown(drainCtx)
	drainErr := q.Shutdown(drainCtx)
	<-errCh // join the serve goroutine (returns ErrServerClosed)

	switch {
	case drainErr != nil:
		fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", prog, drainErr)
		return 1
	case shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed):
		fmt.Fprintf(os.Stderr, "%s: http shutdown: %v\n", prog, shutdownErr)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", prog)
	return 0
}
