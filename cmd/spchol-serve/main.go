// Command spchol-serve runs the long-running sparse Cholesky solve service.
// Clients POST matrices to /v1/factor (MatrixMarket text or JSON-CSC,
// selected by Content-Type) and right-hand sides to /v1/solve; repeated
// factor requests for the same sparsity pattern skip ordering and symbolic
// analysis via the pattern-keyed plan cache and refactor numerically in
// place, and single-RHS solves that queue behind a running sweep are
// coalesced into the next shared multi-RHS sweep.
//
// Usage:
//
//	spchol-serve -addr :8080 -procs 8 -workers 4
//	spchol-serve -cache-entries 32 -cache-bytes 536870912 -batch-limit 16
//
// SIGINT/SIGTERM drain the server: health checks start failing (so load
// balancers stop routing), in-flight requests finish, then the process
// exits.
//
// With -gateway the process instead fronts a multi-node cluster: it opens
// a second listener (-control) that spchol-node workers dial, shards
// factorizations across them, and serves the same /v1/* API through the
// same request pipeline, backed by the cluster (see internal/cluster).
// Every flag that configures the pipeline applies in both modes; the
// local-only RHS batching flags are an error with -gateway.
//
//	spchol-serve -gateway -addr :8080 -control :9000 -replicas 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blockfanout/internal/admission"
	"blockfanout/internal/cluster"
	"blockfanout/internal/fanout"
	"blockfanout/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spchol-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		procs        = flag.Int("procs", 0, "parallel width of each factorization (0 = GOMAXPROCS capped at 16; gateway: 8 virtual processors)")
		workers      = flag.Int("workers", 0, "concurrent heavy operations (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "operations that may wait for a worker before 429")
		cacheEntries = flag.Int("cache-entries", 0, "plan cache entry budget, and the bound on live factors or cluster jobs (0 = default 64)")
		cacheBytes   = flag.Int64("cache-bytes", 0, "plan cache byte budget (0 = default 1 GiB)")
		batchWindow  = flag.Duration("batch-window", 2*time.Millisecond, "local only: negative disables RHS batching; any other value enables it (a solve runs at once when its factor is idle and otherwise rides the next sweep)")
		batchLimit   = flag.Int("batch-limit", 64, "local only: most right-hand sides one coalesced sweep takes")
		timeout      = flag.Duration("timeout", 60*time.Second, "per-request deadline for heavy work")
		block        = flag.Int("block", 0, "panel width B of new plans (0 = default 48)")
		execMode     = flag.String("exec", "steal", "parallel execution engine: steal | spmd")
		drainWait    = flag.Duration("drain-wait", 30*time.Second, "how long shutdown waits for in-flight requests")
		debugAddr    = flag.String("debug-addr", "", "optional second listener with net/http/pprof and /metrics (keep it off the public network)")
		storeDir     = flag.String("store-dir", "", "durable snapshot store directory; factors persist across restarts and are warm-started on boot (empty = no durability)")
		snapEvery    = flag.Duration("snapshot-interval", 0, "minimum spacing between write-behind snapshots of the same factor (0 = default 1s, negative = snapshot every factorization)")

		tenantsPath    = flag.String("tenants", "", "JSON file of per-tenant admission limits; the \"default\" key meters tenants not listed (empty = unmetered)")
		maxFactorBytes = flag.Int64("max-factor-bytes", 0, "refuse factor requests whose factor would exceed this many bytes, before symbolic work (0 = unlimited)")
		memSoftBytes   = flag.Uint64("mem-soft-bytes", 0, "heap watermark that sheds low-priority work (brownout; 0 = disabled)")
		memHardBytes   = flag.Uint64("mem-hard-bytes", 0, "heap watermark that rejects new factorizations (0 = disabled)")

		gateway      = flag.Bool("gateway", false, "run as a cluster gateway instead of a single-process server")
		control      = flag.String("control", ":9000", "gateway: listen address for spchol-node control connections")
		replicas     = flag.Int("replicas", 1, "gateway: factor replicas besides the primary assembly node")
		minNodes     = flag.Int("min-nodes", 1, "gateway: refuse factor requests below this many live nodes")
		beatEvery    = flag.Duration("heartbeat-interval", 500*time.Millisecond, "gateway: heartbeat cadence the fleet is expected to keep")
		beatMisses   = flag.Int("heartbeat-misses", 4, "gateway: consecutive missed heartbeat intervals before a node is declared dead")
		beatLimit    = flag.Duration("heartbeat-timeout", 0, "gateway: declare a silent node dead after this long (0 = heartbeat-interval × heartbeat-misses)")
		fallbackFlag = flag.Bool("local-fallback", true, "gateway: factor locally (degraded mode) instead of erroring when fewer than min-nodes are alive")
	)
	flag.Parse()

	mode, err := fanout.ParseMode(*execMode)
	if err != nil {
		return err
	}

	tenantDefault, tenants, err := loadTenants(*tenantsPath)
	if err != nil {
		return err
	}

	// The request pipeline's settings, the same in both modes.
	cfg := server.Config{
		Procs:            *procs,
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cacheEntries,
		CacheBytes:       *cacheBytes,
		BatchWindow:      *batchWindow,
		BatchLimit:       *batchLimit,
		RequestTimeout:   *timeout,
		BlockSize:        *block,
		Exec:             mode,
		StoreDir:         *storeDir,
		SnapshotInterval: *snapEvery,
		TenantDefault:    tenantDefault,
		Tenants:          tenants,
		MaxFactorBytes:   *maxFactorBytes,
		MemSoftBytes:     *memSoftBytes,
		MemHardBytes:     *memHardBytes,
	}
	var gw *cluster.Gateway
	var srv *server.Server
	if *gateway {
		var localOnly []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "batch-window" || f.Name == "batch-limit" {
				localOnly = append(localOnly, "-"+f.Name)
			}
		})
		if len(localOnly) > 0 {
			return fmt.Errorf("%s: RHS batching is local only; a cluster solve never waits for a batch window", strings.Join(localOnly, ", "))
		}
		gw = cluster.NewGatewayFront(cluster.GatewayConfig{
			Procs:                *procs,
			BlockSize:            *block,
			Exec:                 mode,
			Replicas:             *replicas,
			MinNodes:             *minNodes,
			HeartbeatInterval:    *beatEvery,
			HeartbeatMisses:      *beatMisses,
			HeartbeatTimeout:     *beatLimit,
			DisableLocalFallback: !*fallbackFlag,
			Logf:                 log.Printf,
		}, cfg)
		srv = gw.Front()
	} else {
		srv = server.New(cfg)
	}
	if *storeDir != "" {
		warmStart := srv.WarmStart
		if gw != nil {
			warmStart = gw.WarmStart
		}
		if n, err := warmStart(); err != nil {
			log.Printf("warm start: %v", err)
		} else {
			log.Printf("warm start: restored %d snapshot(s) from %s", n, *storeDir)
		}
	}
	if gw != nil {
		ln, err := net.Listen("tcp", *control)
		if err != nil {
			return fmt.Errorf("control listener: %w", err)
		}
		// The control plane outlives the drain: in-flight cluster requests
		// need their nodes until the HTTP shutdown has waited for them.
		ctlCtx, stopControl := context.WithCancel(context.Background())
		defer stopControl()
		go func() {
			log.Printf("gateway control listener on %s", ln.Addr())
			if err := gw.Serve(ctlCtx, ln); err != nil {
				log.Printf("gateway control: %v", err)
			}
		}()
	}
	hs := newHTTPServer(*addr, srv.Handler())

	// The debug listener carries pprof, which must stay opt-in and off the
	// serving address; its lifetime is tied to the process, not the drain.
	var ds *http.Server
	if *debugAddr != "" {
		ds = newHTTPServer(*debugAddr, srv.DebugHandler())
		go func() {
			log.Printf("debug listener (pprof, /metrics) on %s", *debugAddr)
			if err := ds.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("spchol-serve listening on %s", *addr)
		if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("draining (up to %s)...", *drainWait)
	srv.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	// Serve on while requests are in flight, so a fresh health probe sees
	// 503 "draining" rather than a refused connection.
	_ = srv.WaitIdle(shutdownCtx)
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if ds != nil {
		_ = ds.Shutdown(shutdownCtx)
	}
	srv.Close() // flush pending snapshot writes
	log.Printf("drained cleanly")
	return <-errc
}

// newHTTPServer wraps a handler with the protective timeouts every
// listener needs: a client that stalls mid-headers, trickles a body
// forever, or parks an idle connection cannot pin a goroutine (and its
// buffers) indefinitely. The read timeout is generous because legitimate
// MatrixMarket uploads of paper-scale problems stream hundreds of MB.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// loadTenants reads the -tenants JSON file: an object mapping tenant name
// to admission limits, with the special key "default" metering tenants not
// listed. An empty path leaves everyone unmetered.
//
//	{
//	  "default":  {"rate": 5, "burst": 10, "max_in_flight": 2},
//	  "team-ml":  {"rate": 100, "burst": 200, "max_in_flight": 16,
//	               "max_cache_bytes": 268435456}
//	}
func loadTenants(path string) (admission.TenantLimits, map[string]admission.TenantLimits, error) {
	var def admission.TenantLimits
	if path == "" {
		return def, nil, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return def, nil, fmt.Errorf("tenants: %w", err)
	}
	all := make(map[string]admission.TenantLimits)
	if err := json.Unmarshal(b, &all); err != nil {
		return def, nil, fmt.Errorf("tenants: parse %s: %w", path, err)
	}
	if d, ok := all["default"]; ok {
		def = d
		delete(all, "default")
	}
	return def, all, nil
}
