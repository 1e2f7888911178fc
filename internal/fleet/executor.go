package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"goldeneye"
	"goldeneye/internal/server"
)

// scrapeTimeout bounds each node's /metrics scrape during a rollup, so one
// dead node cannot stall the exposition.
const scrapeTimeout = 2 * time.Second

// Server is the coordinator's HTTP front end: the ordinary job server with
// the coordinator as its executor.
type Server = server.Server

// ServerOptions configures the front end; Serve sets its Executor.
type ServerOptions = server.Options

// Serve builds an in-memory front end over c. It panics if opts name a
// cache or journal directory that cannot be opened; to handle that error,
// call server.New with Executor set to c.
func Serve(c *Coordinator, opts ServerOptions) *Server {
	opts.Executor = c
	s, err := server.New(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Execute runs spec on the fleet for the job server (server.Executor) as
// the shards Check returned at submit, not as the coordinator's current
// geometry: a job replayed from the journal after a restart with other
// nodes or -fleet-shards must still produce the bytes its cache hash
// names.
func (c *Coordinator) Execute(ctx context.Context, spec *server.JobSpec, shards int, progress func(done, total int)) (*goldeneye.CampaignReport, bool, error) {
	rep, err := c.run(ctx, spec, shards, progress)
	if err != nil {
		return nil, false, err
	}
	return rep.CampaignReport, rep.Degraded, nil
}

// Unready reports why the fleet cannot take work: fewer than MinNodes
// healthy nodes. Readiness reflects coordinator state, not live probes.
func (c *Coordinator) Unready() string {
	if healthy := c.healthyCount(); healthy < c.opts.MinNodes {
		return fmt.Sprintf("%d healthy nodes below minimum %d", healthy, c.opts.MinNodes)
	}
	return ""
}

// WriteMetrics is the fleet half of the front end's /metrics rollup: the
// coordinator's goldeneye_fleet_* metrics followed by every reachable
// node's /metrics, each sample line re-labeled with node="addr" so one
// scrape shows the whole fleet without label collisions. Unreachable
// nodes are skipped (noted in a comment) rather than failing the
// exposition.
func (c *Coordinator) WriteMetrics(ctx context.Context, w io.Writer) {
	c.reg.WritePrometheus(w)
	hc := &http.Client{Timeout: scrapeTimeout, Transport: c.opts.Client.Transport}
	for _, n := range c.nodes {
		body, err := scrapeNode(ctx, hc, n.addr)
		if err != nil {
			fmt.Fprintf(w, "# fleet: node %s unreachable: %s\n", n.addr, strings.ReplaceAll(err.Error(), "\n", " "))
			continue
		}
		relabelMetrics(w, body, n.addr)
	}
}

// scrapeNode fetches one node's Prometheus exposition.
func scrapeNode(ctx context.Context, hc *http.Client, addr string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// relabelMetrics rewrites one node's Prometheus exposition, injecting
// node="addr" as the first label of every sample line. HELP/TYPE lines
// pass through: the front end regroups the rollup by family
// (telemetry.MergeExposition), keeping each family's first copy.
func relabelMetrics(w io.Writer, body []byte, addr string) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP "):
			fmt.Fprintln(w, line)
		case line != "" && !strings.HasPrefix(line, "#"):
			fmt.Fprintln(w, injectNodeLabel(line, addr))
		}
	}
}

// injectNodeLabel adds node="addr" to one exposition sample line,
// merging with any labels already present.
func injectNodeLabel(line, addr string) string {
	nodeLabel := fmt.Sprintf(`node=%q`, addr)
	if i := strings.IndexByte(line, '{'); i >= 0 {
		return line[:i+1] + nodeLabel + "," + line[i+1:]
	}
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		return line[:i] + "{" + nodeLabel + "}" + line[i:]
	}
	return line // malformed; pass through untouched
}
