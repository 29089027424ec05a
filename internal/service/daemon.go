package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The start and stop of a daemon's main, written once for advectd,
// advectgw and advectgw's -local nodes.

// NewLogger builds a daemon's stderr logger: logfmt text, or JSON, at the
// named minimum level (debug, info, warn or error).
func NewLogger(level string, asJSON bool) (*slog.Logger, error) {
	var l slog.Level
	if err := l.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -loglevel %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: l}
	if asJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
}

// Listen binds addr and serves h on it from a goroutine, which hands
// failed any Serve error other than the clean close StopHTTP causes.
func Listen(addr string, h http.Handler, failed func(error)) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: h}
	//advect:nolint goroutinelife Serve returns when StopHTTP shuts hs down
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			failed(err)
		}
	}()
	return hs, ln.Addr(), nil
}

// StopHTTP stops hs accepting connections and gives the requests in flight
// up to grace to finish.
func StopHTTP(hs *http.Server, grace time.Duration, logger *slog.Logger) {
	//advect:nolint ctxflow shutdown runs after the signal, when no caller's context is left to derive from
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", "error", err)
	}
}

// ServeUntilSignal is a daemon's serving loop: Listen, catch SIGINT and
// SIGTERM, and only then log "serving" with the bound address and the ready
// attributes — a supervisor may send SIGTERM the moment it reads that line.
// It blocks until a signal arrives and returns nil after StopHTTP; a failure
// to bind or to keep serving returns the error instead.
func ServeUntilSignal(addr string, h http.Handler, logger *slog.Logger, grace time.Duration, ready ...any) error {
	failed := make(chan error, 1)
	hs, bound, err := Listen(addr, h, func(err error) { failed <- err })
	if err != nil {
		return err
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	logger.Info("serving", append([]any{"addr", bound.String()}, ready...)...)
	select {
	case err := <-failed:
		return err
	case sig := <-stop:
		logger.Info("signal received, stopping", "signal", sig.String(), "deadline", grace)
	}
	StopHTTP(hs, grace, logger)
	return nil
}
