package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bytecode"
	"repro/internal/cluster"
	"repro/internal/lifelong"
)

// module is one program as the serving workloads use it: the canonical
// bytecode of its unoptimised linked module, which is what a client posts.
type module struct {
	name string
	body []byte  // canonical bytecode, unoptimised
	hash string  // content address of body
	ref  outcome // reference outcome, from the oracle

	mu       sync.Mutex
	artifact []byte // last optimised bytecode the system served for it
}

func (m *module) setArtifact(data []byte) {
	m.mu.Lock()
	m.artifact = data
	m.mu.Unlock()
}

func (m *module) lastArtifact() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.artifact
}

func buildModule(p *program) (*module, error) {
	m, err := buildLinked(p, false)
	if err != nil {
		return nil, err
	}
	body, err := bytecode.Encode(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return &module{name: p.name, body: body, hash: bytecode.HashBytes(body)}, nil
}

// workingSetVariants is how many reseeded copies of the suite the serving
// workloads keep warm: 15 programs x 2 = 30 modules, enough that the store
// index and the ring spread are not those of a single entry.
const workingSetVariants = 2

func workingSetPrograms(seed int64) []*program {
	var all []*program
	for v := 0; v < workingSetVariants; v++ {
		all = append(all, suite(seed, v, 1)...)
	}
	return all
}

// newClient is the load generator's HTTP client: keep-alive connections,
// enough idle slots that no caller ever reconnects mid-window.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        2 * openLoopSenders,
			MaxIdleConnsPerHost: 2 * openLoopSenders,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

// post sends body and returns the status, headers and whole reply.
func post(c *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, data, nil
}

// launchWarm builds the working set, launches the 3-node in-process cluster
// behind its front (each on its own loopback listener, daemon defaults, the
// idle reoptimizer off: background rebuilds would land in random windows)
// and compiles every module once through the front, so each owner holds its
// artifact.
func launchWarm(cfg config, storeBytes int64, attempt int, refs []outcome) ([]*module, *cluster.LocalCluster, *http.Client, error) {
	var ws []*module
	for i, p := range workingSetPrograms(cfg.seed) {
		m, err := buildModule(p)
		if err != nil {
			return nil, nil, nil, err
		}
		m.ref = refs[i]
		ws = append(ws, m)
	}
	lc, err := cluster.LaunchLocal(cluster.LocalOptions{
		Nodes:      3,
		Dir:        storeDir(cfg.tmp, "cluster", attempt),
		StoreBytes: storeBytes,
		Lifelong:   lifelong.Config{DisableReopt: true},
	})
	if err != nil {
		return nil, nil, nil, err
	}
	client := newClient()
	for _, m := range ws {
		data, _, err := compileVia(client, lc.FrontURL(), m)
		if err != nil {
			lc.Close()
			return nil, nil, nil, err
		}
		m.setArtifact(data)
	}
	return ws, lc, client, nil
}

// compileVia posts m to base/compile?raw=1 and returns the artifact and the
// X-Cache word.
func compileVia(c *http.Client, base string, m *module) ([]byte, string, error) {
	status, hdr, data, err := post(c, base+"/compile?raw=1", m.body)
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", m.name, err)
	}
	if status != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %.200s", m.name, status, data)
	}
	return data, hdr.Get("X-Cache"), nil
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

func storeDir(root, name string, attempt int) string {
	return filepath.Join(root, fmt.Sprintf("%s-%d", name, attempt))
}
