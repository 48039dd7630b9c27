package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// node is one in-process HTTP listener on loopback.
type node struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

func (n *node) close() {
	_ = n.srv.Close() // the benchmark is done with every connection
	<-n.done
}

// stack is the system under test: one schedd, or schedgw in front of two
// schedd shards, each on its own loopback listener.
type stack struct {
	shards []*server.Server
	nodes  []*node // shard listeners, in shards order
	gw     *cluster.Gateway
	gwNode *node
	entry  string // base URL the load goes to
	closed bool
}

// startStack builds the servers (and gateway) with default configuration
// and waits until the front door answers /readyz 200.
func startStack(ctx context.Context, c *http.Client, gateway bool) (*stack, error) {
	st := &stack{}
	nShards := 1
	if gateway {
		nShards = 2
	}
	for i := 0; i < nShards; i++ {
		s := server.New(server.Config{ShardID: fmt.Sprintf("s%d", i)})
		n, err := listen(s.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.shards = append(st.shards, s)
		st.nodes = append(st.nodes, n)
	}
	st.entry = st.nodes[0].base
	if gateway {
		var bases []string
		for _, n := range st.nodes {
			bases = append(bases, n.base)
		}
		gw, err := cluster.NewGateway(cluster.Config{Shards: bases})
		if err != nil {
			st.close()
			return nil, err
		}
		gw.Start()
		st.gw = gw
		n, err := listen(gw.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.gwNode = n
		st.entry = n.base
	}
	if err := waitReady(ctx, c, st.entry); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func waitReady(ctx context.Context, c *http.Client, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/readyz never answered 200: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops every listener and the gateway's prober and waits for them.
// It is idempotent, and does nothing on a nil stack.
func (st *stack) close() {
	if st == nil || st.closed {
		return
	}
	st.closed = true
	if st.gwNode != nil {
		st.gwNode.close()
	}
	if st.gw != nil {
		st.gw.Close()
	}
	for _, n := range st.nodes {
		n.close()
	}
}

// shardBases returns the shards' own base URLs.
func (st *stack) shardBases() []string {
	var out []string
	for _, n := range st.nodes {
		out = append(out, n.base)
	}
	return out
}

// response is one HTTP answer as the client saw it.
type response struct {
	code int
	body []byte
	err  error
}

func (r response) failure() error {
	switch {
	case r.err != nil:
		return r.err
	case r.code != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", r.code, r.body)
	}
	return nil
}

func schedulePath(e *entry, seed int64) string {
	return fmt.Sprintf("/schedule?machine=%s&seed=%d", e.machine, seed)
}

func post(ctx context.Context, c *http.Client, url string, body []byte) response {
	var buf bytes.Buffer
	return postInto(ctx, c, url, body, &buf)
}

// postInto reads the answer into buf; the response's body aliases buf until
// its next use.
func postInto(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) response {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	resp, err := c.Do(req)
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return response{code: resp.StatusCode, body: buf.Bytes(), err: err}
}

// job is one untimed request: an entry with a scheduler seed, to one base.
type job struct {
	base string
	e    *entry
	seed int64
}

// sendAll posts every job, one at a time like the timed load, and returns
// the responses in job order.
func sendAll(ctx context.Context, c *http.Client, jobs []job) []response {
	out := make([]response, len(jobs))
	for k, j := range jobs {
		out[k] = post(ctx, c, j.base+schedulePath(j.e, j.seed), j.e.body)
	}
	return out
}

// firstFailure returns the first failed response's error, naming its job.
func firstFailure(jobs []job, rs []response) error {
	for k, r := range rs {
		if err := r.failure(); err != nil {
			return fmt.Errorf("%s seed %d: %w", jobs[k].e.name, jobs[k].seed, err)
		}
	}
	return nil
}
