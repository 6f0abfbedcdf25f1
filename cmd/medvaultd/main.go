// Command medvaultd serves a durable MedVault directory over HTTP/JSON.
//
// Usage:
//
//	medvaultd -dir DIR -key HEX [-addr :8600] [-tls-cert crt -tls-key key]
//	          [-debug-addr 127.0.0.1:8601]
//
// The master key may also come from $MEDVAULT_KEY. Principals are managed
// with 'medvault grant' (the server reads principals.conf at startup).
// With -tls-cert/-tls-key the server speaks HTTPS — the paper requires
// encryption on "the data pathways leading to and out", not just at rest.
// GET /metrics exposes Prometheus-format counters and latency histograms
// for every vault mechanism (core ops, HTTP routes, WAL fsync, blockstore
// I/O, crypto, index, audit), GET /debug/traces serves per-request span
// traces, and GET /debug/flight serves the in-memory flight-recorder ring.
// See internal/httpapi for the route list.
//
// -debug-addr starts a second listener (bind it to loopback) carrying
// net/http/pprof plus /debug/traces and /debug/flight, so profiling and
// trace inspection survive even when the main listener is saturated or
// firewalled. Without it, and in follower mode, which has no debug
// listener, nothing can serve a heap profile, so the runtime samples no
// allocations (runtime.MemProfileRate = 0).
//
// An anomaly watchdog ticks in the background: active findings appear as
// degraded detail on /healthz and as medvault_watchdog_anomalies_total.
// On a request-handler panic, a WAL wedge, or SIGQUIT the daemon writes a
// crash-atomic postmortem bundle (flight tail, goroutine stacks, metrics,
// slow traces) under DIR/postmortem/; 'medvault flight -dir DIR' decodes
// bundles and persisted flight segments offline.
//
// The server logs structured lines (log/slog, JSON to stderr): startup and
// recovery summary, one line per request with route/status/duration/trace
// ID, and shutdown progress.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// are drained (bounded by a timeout), then the vault is closed so the WAL
// is checkpointed and the final metadata snapshot is written.
//
// # Replication
//
// A warm-standby pair is two medvaultd processes:
//
//	medvaultd -dir /srv/replica -follow -repl-addr :8610 -addr :8601 -key HEX
//	medvaultd -dir /srv/vault -replicate-to standby:8610 -key HEX
//
// The primary streams every committed filesystem write to the follower and
// only acknowledges clients after the follower has the bytes a group-commit
// fsync covers; a dead link degrades to local-only operation and the
// anti-entropy timer resynchronizes on reconnect. The follower applies the
// stream into -dir and serves only /healthz, /metrics, and POST /promote
// until promoted; promotion fences the old primary's epoch, opens the
// replica as a full vault, and swaps in the complete HTTP API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"medvault/internal/core"
	"medvault/internal/faultfs"
	"medvault/internal/httpapi"
	"medvault/internal/obs"
	"medvault/internal/repl"
	"medvault/internal/vaultcfg"
	"medvault/internal/vcrypto"
)

func main() {
	var (
		dir       = flag.String("dir", "", "vault directory (required)")
		key       = flag.String("key", os.Getenv("MEDVAULT_KEY"), "master key, 64 hex chars (or $MEDVAULT_KEY)")
		addr      = flag.String("addr", ":8600", "listen address")
		name      = flag.String("name", "medvaultd", "system name recorded in custody chains")
		tlsCert   = flag.String("tls-cert", "", "TLS certificate file (enables HTTPS with -tls-key)")
		tlsKey    = flag.String("tls-key", "", "TLS private key file")
		debugAddr = flag.String("debug-addr", "", "optional debug listener (pprof + /debug/traces); bind to loopback. Without it (and with -follow) heap profiling is off")
		dekCache  = flag.Int("dek-cache", 0, "plaintext-DEK cache entries (0 = default, -1 disables)")
		blockMB   = flag.Int("block-cache-mb", 0, "ciphertext block cache size in MiB (0 = default, -1 disables)")
		shards    = flag.Int("shards", 0, "shard count for a new vault directory (0 adopts the existing layout)")

		replicateTo = flag.String("replicate-to", "", "stream every committed write to the follower's replication listener at this address")
		follow      = flag.Bool("follow", false, "follower mode: apply a primary's stream into -dir; only /healthz, /metrics, POST /promote until promoted")
		replAddr    = flag.String("repl-addr", ":8610", "follower mode: replication stream listen address")
	)
	flag.Parse()
	runtime.MemProfileRate = memProfileRate(*debugAddr, *follow)
	// The MiB flag scales to bytes only for positive sizes; 0 (default) and
	// the -1 disable sentinel pass through for vaultcfg to validate, so
	// "-block-cache-mb -7" is rejected instead of shifting into a surprise.
	blockBytes := int64(*blockMB)
	if blockBytes > 0 {
		blockBytes <<= 20
	}
	opt := vaultcfg.Options{
		DEKCacheEntries: *dekCache,
		BlockCacheBytes: blockBytes,
		Shards:          *shards,
	}
	var err error
	switch {
	case *follow && *replicateTo != "":
		err = fmt.Errorf("-follow and -replicate-to are mutually exclusive")
	case *follow:
		err = runFollower(*dir, *key, *addr, *replAddr, *name, *tlsCert, *tlsKey, opt)
	default:
		err = run(*dir, *key, *addr, *name, *tlsCert, *tlsKey, *debugAddr, *replicateTo, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "medvaultd:", err)
		os.Exit(1)
	}
}

// memProfileRate is the heap-sampling rate for a server with debug listener
// debugAddr, in follower mode or not: the runtime's default where
// /debug/pprof/heap can serve the profile, and 0 where nothing can, since
// sampling keeps a bucket table of a megabyte or more that no one reads.
func memProfileRate(debugAddr string, follow bool) int {
	if debugAddr == "" || follow {
		return 0
	}
	return runtime.MemProfileRate
}

func run(dir, key, addr, name string, tlsCert, tlsKey, debugAddr, replicateTo string, opt vaultcfg.Options) error {
	master, logger, err := startup(dir, key, tlsCert, tlsKey)
	if err != nil {
		return err
	}
	// Bind before opening the vault so a bad address fails fast without
	// churning the vault's recovery path.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	var capture *repl.Capture
	if replicateTo != "" {
		// The follower must be reachable at startup — its handshake resyncs
		// the replica to this directory before the first write ships. After
		// that, a dead link degrades to local-only operation (writes keep
		// committing) and the anti-entropy timer reconnects and resyncs.
		dir = filepath.Clean(dir)
		if err := os.MkdirAll(dir, 0o700); err != nil {
			ln.Close()
			return err
		}
		raw := faultfs.OS{}
		sess, err := repl.DialTCP(replicateTo, raw, dir)
		if err != nil {
			ln.Close()
			return err
		}
		capture, err = repl.NewCapture(raw, repl.Config{
			Session: sess,
			Root:    dir,
			Raw:     raw,
			Logf: func(format string, args ...any) {
				logger.Warn("replication", "msg", fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			ln.Close()
			return fmt.Errorf("replication handshake with %s: %w", replicateTo, err)
		}
		opt.FS = capture
	}
	v, err := vaultcfg.OpenWith(dir, name, master, opt)
	if err != nil {
		ln.Close()
		return err
	}
	defer v.Close()
	if capture != nil {
		capture.StartAntiEntropy(10 * time.Second)
		defer capture.Close()
		logger.Info("replicating", "follower", replicateTo, "epoch", capture.Epoch())
	}
	pm, wd, stopWd := startObservability(dir, v.NumShards(), logger)
	defer stopWd()

	h := v.Health()
	logger.Info("vault opened",
		"dir", dir,
		"shards", v.NumShards(),
		"records", h.LiveRecords,
		"snapshot_loaded", h.LastRecovery.SnapshotLoaded,
		"wal_entries_replayed", h.LastRecovery.WALEntries)
	if v.NumShards() > 1 {
		// Every shard ran its own recovery at open; log each so a shard that
		// replayed an unexpected WAL tail is visible at startup.
		for i, sh := range h.Shards {
			logger.Info("shard recovered",
				"shard", i,
				"records", sh.LiveRecords,
				"snapshot_loaded", sh.LastRecovery.SnapshotLoaded,
				"wal_entries_replayed", sh.LastRecovery.WALEntries)
		}
	}

	if debugAddr != "" {
		dln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv := &http.Server{
			Handler:           debugMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer debugSrv.Close()
		go func() {
			logger.Info("debug listener up", "addr", debugAddr)
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err.Error())
			}
		}()
	}

	if tlsCert != "" {
		logger.Info("serving", "dir", dir, "records", v.Len(), "addr", addr, "tls", true)
	} else {
		logger.Warn("serving with PLAINTEXT transport — use -tls-cert/-tls-key in production",
			"dir", dir, "records", v.Len(), "addr", addr, "tls", false)
	}
	handler := httpapi.New(v, httpapi.WithLogger(logger), httpapi.WithWatchdog(wd), httpapi.WithPanicHook(pm.write))
	if err := serveUntilSignal(logger, ln, handler, tlsCert, tlsKey); err != nil {
		return err
	}
	if wh := v.Health(); wh.WALWedged {
		logger.Error("WAL wedged at shutdown — vault was read-only", "err", wh.WALWedgeError)
	}
	logger.Info("drained; closing vault")
	return nil // deferred v.Close checkpoints the WAL and snapshots
}

// startup is the front of both modes: flag checks, the master key, and the
// process logger (JSON to stderr).
func startup(dir, key, tlsCert, tlsKey string) (vcrypto.Key, *slog.Logger, error) {
	if dir == "" {
		return vcrypto.Key{}, nil, fmt.Errorf("-dir is required")
	}
	if (tlsCert == "") != (tlsKey == "") {
		return vcrypto.Key{}, nil, fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	master, err := vaultcfg.ParseMasterKey(key)
	return master, slog.New(slog.NewJSONHandler(os.Stderr, nil)), err
}

// serveUntilSignal serves handler on ln — HTTPS when tlsCert is set — until
// the listener fails (that error is returned) or SIGINT/SIGTERM arrives;
// then in-flight requests get 15 s to drain, and nil means a clean stop.
func serveUntilSignal(logger *slog.Logger, ln net.Listener, handler http.Handler, tlsCert, tlsKey string) error {
	// Slowloris-resistant timeouts: a client that trickles headers or never
	// reads its response cannot pin a connection (and its vault resources)
	// forever. Export streams are the largest responses; WriteTimeout is
	// sized for them.
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		if tlsCert != "" {
			errc <- srv.ServeTLS(ln, tlsCert, tlsKey)
			return
		}
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // restore default signal behavior: a second signal kills hard
		logger.Info("signal received, draining requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// handlerBox wraps an http.Handler so atomically swapping concrete handler
// types through atomic.Value is legal.
type handlerBox struct{ h http.Handler }

// runFollower is the warm-standby process: a replication listener applies
// the primary's stream into dir, while a minimal HTTP surface reports
// health and accepts the promotion order. POST /promote fences the old
// primary, opens the replica as a full vault (recovery replays the
// replicated WAL tail), and swaps the complete API in on the same listener
// — clients keep the same address across the failover.
func runFollower(dir, key, addr, replAddr, name string, tlsCert, tlsKey string, opt vaultcfg.Options) error {
	master, logger, err := startup(dir, key, tlsCert, tlsKey)
	if err != nil {
		return err
	}
	dir = filepath.Clean(dir)
	fol, err := repl.NewFollower(faultfs.OS{}, dir)
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", replAddr)
	if err != nil {
		return fmt.Errorf("replication listener: %w", err)
	}
	pm, wd, stopWd := startObservability(dir, opt.Shards, logger)
	defer stopWd()
	go func() {
		if err := repl.Serve(rln, fol, func(format string, args ...any) {
			logger.Warn("replication", "msg", fmt.Sprintf(format, args...))
		}); err != nil {
			logger.Error("replication listener failed", "err", err.Error())
		}
	}()

	var (
		mu       sync.Mutex // serializes promotion
		promoted *core.Cluster
		handler  atomic.Value // handlerBox
	)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"role\":\"follower\",\"epoch\":%d,\"applied_lsn\":%d}\n", fol.Epoch(), fol.AppliedLSN())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = obs.Default.WritePrometheus(w)
	})
	// The follower's flight ring records replicated-apply events carrying the
	// primary's trace IDs; serving it pre-promotion lets an operator join a
	// primary write to its standby apply without shelling into the box.
	mux.Handle("GET /debug/flight", httpapi.FlightHandler(obs.DefaultFlight))
	mux.HandleFunc("POST /promote", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		if promoted != nil {
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintln(w, "{\"error\":\"already promoted\"}")
			return
		}
		epoch, err := fol.Promote()
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		v, err := vaultcfg.OpenWith(dir, name, master, opt)
		if err != nil {
			logger.Error("promoted replica failed to open", "err", err.Error())
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
			return
		}
		// The replication listener stays up so a revived stale primary is
		// fenced — and the attempt lands in the new primary's audit chain.
		fol.SetFenceAuditor(func(detail string) {
			if err := v.AuditReplicationFence(detail); err != nil {
				logger.Error("auditing fence rejection", "err", err.Error())
			}
		})
		handler.Store(handlerBox{httpapi.New(v, httpapi.WithLogger(logger),
			httpapi.WithWatchdog(wd), httpapi.WithPanicHook(pm.write))})
		promoted = v
		h := v.Health()
		logger.Info("promoted", "epoch", epoch, "records", h.LiveRecords,
			"wal_entries_replayed", h.LastRecovery.WALEntries)
		fmt.Fprintf(w, "{\"promoted\":true,\"epoch\":%d}\n", epoch)
	})
	handler.Store(handlerBox{mux})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		rln.Close()
		return err
	}
	logger.Info("follower up", "dir", dir, "addr", addr, "repl_addr", replAddr, "epoch", fol.Epoch())
	err = serveUntilSignal(logger, ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(handlerBox).h.ServeHTTP(w, r)
	}), tlsCert, tlsKey)
	rln.Close()
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if promoted != nil {
		logger.Info("drained; closing promoted vault")
		return promoted.Close()
	}
	return nil
}

// debugMux carries the operator-only surfaces: pprof and the trace ring.
// Neither belongs on the public listener in production, and pprof in
// particular can stall the process (heap dumps, 30s CPU profiles), so both
// live on their own loopback listener.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", httpapi.TraceHandler(obs.DefaultTracer))
	mux.Handle("/debug/flight", httpapi.FlightHandler(obs.DefaultFlight))
	return mux
}
