// Command ensembled serves the campaign service over HTTP: a bounded
// worker pool evaluating ensemble placements with a content-addressed
// result cache, exposed as a JSON API with Prometheus metrics, live
// server-sent-events campaign streams, structured JSON logs, and
// (opt-in) pprof profiling. `ensembled -h` lists the flags.
//
// With -state-dir the service is crash-safe: every campaign, job
// enqueue, and terminal job state is fsync'd to an append-only journal
// (DIR/journal.wal) before it is acknowledged, and results persist in a
// checksummed disk cache (DIR/cache unless -cache-dir overrides it). On
// startup the journal is replayed: finished jobs resolve from the cache,
// unfinished ones re-enter the queue, and open campaigns relaunch under
// their original IDs — a SIGKILL'd service resumes exactly where it
// stopped. -retry bounds executions per job (transient failures back off
// and re-enqueue; default 3; 1 disables retries).
//
// Endpoints:
//
//	POST /v1/campaigns               submit a sweep ({"configs":["table2"]})
//	GET  /v1/campaigns               list campaigns
//	GET  /v1/campaigns/{id}          poll a campaign (F(P) ranking once done)
//	GET  /v1/campaigns/{id}/events   live SSE stream: one event per job state
//	                                 transition plus a terminal summary
//	GET  /v1/jobs/{id}               one job's status (incl. trace ID, reason)
//	GET  /v1/jobs/{id}/trace         Perfetto (Chrome JSON) trace of a done job
//	GET  /v1/jobs/{id}/spans         distributed-trace spans (OTLP JSON)
//	GET  /v1/jobs/{id}/critical-path per-job critical path with stage breakdown
//	GET  /v1/stats                   cache hit rate, queue depth, worker counters
//	GET  /healthz                    liveness (200 while the process serves)
//	GET  /readyz                     readiness (503 when draining/saturated/journal unwritable)
//	GET  /metrics                    Prometheus text exposition (service, HTTP, pool)
//	GET  /debug/pprof/*              runtime profiles (only with -pprof)
//
// Distributed tracing is always on: every request gets a server span,
// campaigns and jobs become child spans, and each job's DES run is
// bridged in as stage-level spans, queryable via the /spans and
// /critical-path endpoints or correlated with logs via trace_id.
//
// Any of -node-id, -advertise, or -join enables the distributed
// campaign fabric: the process joins (or seeds) a peer pool that routes
// every job by its content hash to a deterministic owner, consults the
// owner's cache before executing, and forwards execution when the hash
// belongs elsewhere, so N ensembled processes serve one logical
// campaign service with one fleet-wide cache. -node-id and -advertise
// default to the bound listen address; -join lists seed peer base URLs.
// The pool mounts under /v1/pool/ and exports pool_* metrics; /readyz
// stays 503 until a joining node reaches a seed. On SIGTERM a pool
// member forwards its still-queued jobs to ring successors before
// exiting instead of journaling them for a local restart.
//
// SIGTERM (or SIGINT) is graceful: readiness fails, new campaigns are
// refused, and the process exits only once in-flight requests — open
// SSE streams included — have finished (or after a 5 s grace period).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ensemblekit/internal/campaign"
	"ensemblekit/internal/campaign/pool"
	"ensemblekit/internal/telemetry"
	"ensemblekit/internal/telemetry/tracing"
)

func main() {
	var cfg serverConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flag.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "in-memory result-cache budget (0 = default 256 MiB)")
	flag.StringVar(&cfg.cacheDir, "cache-dir", "", "optional on-disk result cache directory")
	flag.StringVar(&cfg.stateDir, "state-dir", "", "durable state directory: journal (DIR/journal.wal) + default disk cache (DIR/cache)")
	flag.IntVar(&cfg.retry, "retry", 3, "max executions per job; transient failures back off and re-enqueue (1 disables retries)")
	flag.DurationVar(&cfg.execDelay, "exec-delay", 0, "artificially stretch each execution (chaos/load testing only)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	flag.BoolVar(&cfg.pprofOn, "pprof", false, "expose GET /debug/pprof/* runtime profiles")
	flag.StringVar(&cfg.nodeID, "node-id", "", "pool identity of this node (enables the fabric; default: the bound listen address)")
	flag.StringVar(&cfg.advertise, "advertise", "", "base URL peers reach this node at (enables the fabric; default: http://<bound address>)")
	flag.StringVar(&cfg.join, "join", "", "comma-separated seed peer base URLs to join (enables the fabric)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 0, "pool heartbeat interval (0 = default 1s)")
	flag.StringVar(&cfg.addrFile, "addr-file", "", "write the bound listen address to this file once listening")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ensembled: %v\n", err)
		os.Exit(1)
	}
}

// serverConfig carries the parsed flags.
type serverConfig struct {
	addr               string
	workers            int
	cacheBytes         int64
	cacheDir, logLevel string
	stateDir           string
	retry              int
	execDelay          time.Duration
	nodeID             string
	advertise          string
	join               string
	heartbeat          time.Duration
	pprofOn            bool
	addrFile           string
}

// poolEnabled reports whether any fabric flag was given.
func (c serverConfig) poolEnabled() bool {
	return c.nodeID != "" || c.advertise != "" || c.join != ""
}

func run(cfg serverConfig) error {
	level, ok := telemetry.ParseLevel(cfg.logLevel)
	if !ok {
		return fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", cfg.logLevel)
	}
	log := telemetry.NewLogger(os.Stderr, level)
	reg := telemetry.NewRegistry()

	// -state-dir bundles durability: the journal plus (unless overridden)
	// a disk cache, so replayed jobs resolve without re-executing.
	journalPath := ""
	if cfg.stateDir != "" {
		if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
			return fmt.Errorf("state dir: %w", err)
		}
		journalPath = filepath.Join(cfg.stateDir, "journal.wal")
		if cfg.cacheDir == "" {
			cfg.cacheDir = filepath.Join(cfg.stateDir, "cache")
		}
	}

	// Tracing is always on; the store keeps the newest 1024 traces of at
	// most 8192 spans each.
	tracer := tracing.NewTracer(tracing.NewStore(0, 0))

	svc, err := campaign.NewService(campaign.Config{
		Workers:     cfg.workers,
		CacheBytes:  cfg.cacheBytes,
		CacheDir:    cfg.cacheDir,
		JournalPath: journalPath,
		Retry:       campaign.RetryPolicy{MaxAttempts: cfg.retry},
		ExecDelay:   cfg.execDelay,

		Metrics: reg,
		Logger:  log,
		Tracer:  tracer,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	api := campaign.NewServer(svc)

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	// The fabric is wired before Resume so journal-replayed jobs route
	// through the ring from their first execution. -node-id and
	// -advertise default to the bound address, so a bare -join suffices
	// on localhost.
	var pl *pool.Pool
	if cfg.poolEnabled() {
		selfID := cfg.nodeID
		if selfID == "" {
			selfID = ln.Addr().String()
		}
		adv := cfg.advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		var seeds []string
		for _, s := range strings.Split(cfg.join, ",") {
			if s = strings.TrimSpace(s); s != "" {
				seeds = append(seeds, s)
			}
		}
		pl, err = pool.New(pool.Config{
			SelfID:    selfID,
			Advertise: adv,
			Join:      seeds,
			Heartbeat: cfg.heartbeat,
			Local:     svc,
			Permanent: campaign.IsPermanent,
			Metrics:   reg,
			Logger:    log,
			Tracer:    tracer,
		})
		if err != nil {
			return err
		}
		defer pl.Close()
		svc.SetFabric(pl)
		api.AddReadyCheck(pl.Ready)
		log.Info("pool fabric enabled", "node", selfID, "advertise", adv, "seeds", len(seeds))
	}

	api.Resume() // relaunch campaigns left open in the journal

	mux := http.NewServeMux()
	mux.Handle("/v1/", api.Handler())
	mux.Handle("GET /healthz", api.Handler())
	mux.Handle("GET /readyz", api.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	if pl != nil {
		mux.Handle("/v1/pool/", pl.Handler())
		pl.Start() // heartbeats + seed joins (retried until first contact)
	}
	if cfg.pprofOn {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	srv := &http.Server{Handler: mux}
	if cfg.addrFile != "" {
		// Tmp-then-rename so a watcher never reads a half-written address.
		tmp := cfg.addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
		if err := os.Rename(tmp, cfg.addrFile); err != nil {
			return err
		}
	}

	log.Info("ensembled listening",
		"addr", ln.Addr().String(), "workers", svc.Stats().Workers,
		"queue", svc.Stats().QueueCapacity, "pprof", cfg.pprofOn,
		"pool", pl != nil)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Serve returns as soon as Shutdown starts; run returns (closing the
	// service) only once Shutdown has let in-flight requests finish.
	shutdown := make(chan struct{})
	go func() {
		defer close(shutdown)
		<-ctx.Done()
		log.Info("shutting down")
		api.SetDraining(true) // readiness fails first, so LBs stop routing
		if pl != nil {
			// Graceful drain: still-queued jobs move to ring successors
			// now instead of waiting in the journal for a local restart.
			drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			handed := svc.DrainQueuedToPeers(drainCtx)
			cancel()
			if handed > 0 {
				log.Info("drained queued jobs to peers", "jobs", handed)
			}
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-shutdown
	return nil
}
