// Command goldeneyed is the GoldenEye campaign service daemon: it serves
// the internal/server job API over HTTP, running fault-injection campaigns
// from a bounded queue with SSE progress streaming, a persistent
// content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	goldeneyed -addr localhost:7726 -cache-dir /var/lib/goldeneye/cache
//
// On SIGINT/SIGTERM the daemon drains: running campaigns finish (bounded
// by -drain-timeout) and their results are persisted before exit, so a
// rolling restart never discards completed work. With -journal-dir the
// daemon also keeps a write-ahead job journal and survives crashes: a
// restarted daemon replays the journal, re-queues interrupted jobs, and
// re-executes them bit-identically (see docs/OPERATIONS.md).
//
// Coordinator mode runs the same daemon with the fleet coordinator as its
// executor:
//
//	goldeneyed -addr localhost:7726 -journal-dir /var/lib/goldeneye/journal \
//		-fleet http://node1:7726,http://node2:7726
//
// Jobs, journal, cache, deadlines and queue backpressure work exactly as
// above, but each campaign is sharded across the named daemons, survives
// node failures (lease-based reassignment, quarantine, idempotent replay),
// and merges byte-identically to a single-node run at workers = shard
// count. The fleet runs one campaign at a time, so -jobs is 1 in this
// mode. /readyz also tracks the healthy node count, and /metrics merges
// in a fleet-wide rollup of every node's metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goldeneye/internal/fleet"
	"goldeneye/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:7726", "listen address")
		queue        = flag.Int("queue", 16, "job queue bound (full queue answers 429)")
		jobs         = flag.Int("jobs", 1, "concurrent campaign jobs (local mode; a fleet runs one campaign at a time)")
		campWorkers  = flag.Int("campaign-workers", 1, "default per-job campaign parallelism (local mode; a fleet job runs one worker per shard)")
		cacheDir     = flag.String("cache-dir", "", "persist the result cache here (empty = in-memory only)")
		journalDir   = flag.String("journal-dir", "", "persist the write-ahead job journal here (empty = no crash recovery)")
		zooDir       = flag.String("zoo-dir", "", "pre-trained model cache directory (empty = default; local mode)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Minute, "how long SIGTERM waits for running jobs before cancelling them")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request handler timeout on non-streaming endpoints")
		fleetURLs    = flag.String("fleet", "", "comma-separated goldeneyed base URLs: run jobs as sharded campaigns on these nodes instead of locally")
		fleetShards  = flag.Int("fleet-shards", 0, "shard count per fleet campaign (0 = one shard per node)")
		fleetMin     = flag.Int("fleet-min", 1, "minimum healthy nodes the fleet tolerates before failing campaigns")
	)
	flag.Parse()

	opts := server.Options{
		QueueSize:       *queue,
		Jobs:            *jobs,
		CampaignWorkers: *campWorkers,
		CacheDir:        *cacheDir,
		JournalDir:      *journalDir,
		ZooDir:          *zooDir,
		RequestTimeout:  *reqTimeout,
	}
	var nodes []string
	if *fleetURLs != "" {
		for _, a := range strings.Split(*fleetURLs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				nodes = append(nodes, a)
			}
		}
		// The coordinator keeps its own registry: /metrics appends it after
		// the server's, so sharing one would expose every series twice.
		co, err := fleet.New(nodes, fleet.Options{
			Shards:   *fleetShards,
			MinNodes: *fleetMin,
			Logf: func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "goldeneyed:", err)
			os.Exit(1)
		}
		opts.Executor = co
		// The fleet runs one campaign at a time; one server worker keeps
		// the rest queued, where cancel, deadlines and 429 see them.
		opts.Jobs = 1
	}
	svc, err := server.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldeneyed:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "goldeneyed:", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: svc}
	fmt.Printf("goldeneyed listening on http://%s\n", ln.Addr())
	if *journalDir != "" {
		fmt.Printf("goldeneyed: journaling jobs to %s (crash recovery armed)\n", *journalDir)
	}
	if opts.Executor != nil {
		fmt.Printf("goldeneyed: coordinating a %d-node fleet (min healthy %d): %s\n",
			len(nodes), *fleetMin, strings.Join(nodes, ", "))
	}
	fmt.Printf("goldeneyed: readiness at http://%s/readyz, liveness at http://%s/healthz\n", ln.Addr(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigs:
		fmt.Printf("goldeneyed: %s, draining (timeout %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "goldeneyed: drain:", err)
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		httpSrv.Shutdown(shutCtx)
		fmt.Println("goldeneyed: drained, exiting")
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "goldeneyed:", err)
		os.Exit(1)
	}
}
