// lumosd is the Lumos planning service: a long-lived daemon that holds a
// registry of named, immutable profiles (calibrated once, shared
// read-only), serves concurrent sweep/plan campaigns over HTTP/JSON, and
// layers a disk-backed content-addressed scenario cache under the
// in-memory memo so campaigns survive restarts warm.
//
//	lumosd -addr :8344 -cache-dir /var/cache/lumos
//
//	curl -s localhost:8344/v1/profiles -d '{"name":"fig7","deployment":{"model":"15b","tp":2,"pp":2,"dp":1,"microbatches":4},"seed":42}'
//	curl -s localhost:8344/v1/plan -d '{"profile":"fig7","pp_range":[1,2],"dp_range":[1,2],"mb_range":[4,8]}'
//	curl -s localhost:8344/v1/stats
//	curl -s localhost:8344/metrics
//	curl -s localhost:8344/v1/traces
//	curl -s localhost:8344/v1/traces/tr-1 > trace.json   # open in ui.perfetto.dev
//
// On SIGINT/SIGTERM the daemon drains: the listener stops accepting, every
// in-flight sweep or plan finishes (bounded by -drain), and the scenario
// cache is closed before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lumos/internal/server"
)

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so idle or trickling connections cannot pin the daemon's
// sockets; idleTimeout closes keep-alive connections left idle. There is
// deliberately no WriteTimeout: a large plan may compute for minutes
// before its response is written, and a write deadline would cut it off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the API listener's server around handler.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	cacheDir := flag.String("cache-dir", "", "disk-backed scenario cache directory (empty = in-memory only)")
	cacheCap := flag.Int64("cache-cap-mib", 0, "disk cache size cap in MiB (0 = default)")
	workers := flag.Int("workers", 0, "sweep worker pool size shared by all requests (0 = auto)")
	seed := flag.Uint64("seed", 42, "simulation seed for seed-sourced profiles")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	traceSlow := flag.Duration("trace-slow", 0, "retain flight-recorder traces only for sweep/plan requests at least this slow (0 = retain all)")
	traceCap := flag.Int64("trace-cap-mib", 0, "flight-recorder trace retention cap in MiB (0 = default 16 MiB)")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof debug endpoints (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	slog.SetDefault(logger)

	srv := server.New(server.Config{
		CacheDir:  *cacheDir,
		CacheCap:  *cacheCap << 20,
		Workers:   *workers,
		Seed:      *seed,
		Logger:    logger,
		TraceSlow: *traceSlow,
		TraceCap:  *traceCap << 20,
	})
	httpSrv := newHTTPServer(*addr, srv)

	if *debugAddr != "" {
		// pprof registers on http.DefaultServeMux; serve it on its own
		// listener so profiling endpoints never share the API address.
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				logger.Error("pprof listener", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	cache := "in-memory scenario cache only"
	if *cacheDir != "" {
		cache = fmt.Sprintf("disk cache at %s", *cacheDir)
	}
	logger.Info("lumosd listening", "addr", *addr, "cache", cache)

	exit := 0
	select {
	case <-ctx.Done():
		logger.Info("lumosd shutting down", "drain", *drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "err", err)
			exit = 1
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("lumosd", "err", err)
			exit = 1
		}
	}
	// The listener has drained (or timed out): no request can touch the
	// cache past this point, so closing it is race-free.
	if err := srv.Close(); err != nil {
		logger.Error("closing scenario cache", "err", err)
		exit = 1
	}
	os.Exit(exit)
}
