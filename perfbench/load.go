package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/service"
)

// outcome is one request as the load generator saw it.
type outcome struct {
	req service.Request
	sendTimes
	status int
	resp   service.Response
	bytes  int // response body size
	err    error
	// wrong is set by the correctness check when the response's
	// simulated statistics differ from the reference run.
	wrong bool
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && !o.wrong }

// loadClient is the load generator's HTTP side. Its transport caps the
// connections it may hold; a counting dialer records the most it ever
// held at once, and post the most requests in flight at once (one per
// sending goroutine), so the run can assert both caps.
type loadClient struct {
	hc       *http.Client
	url      string
	maxConns int

	open, peak             atomic.Int64
	inFlight, peakInFlight atomic.Int64
}

// raise lifts peak to at least v.
func raise(peak *atomic.Int64, v int64) {
	for p := peak.Load(); v > p && !peak.CompareAndSwap(p, v); p = peak.Load() {
	}
}

func newLoadClient(target string, maxConns int) *loadClient {
	c := &loadClient{url: "http://" + target + "/v1/run", maxConns: maxConns}
	dialer := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			raise(&c.peak, c.open.Add(1))
			return &countedConn{Conn: conn, open: &c.open}, nil
		},
	}}
	return c
}

// countedConn decrements the client's open-connection count once, on
// the first Close.
type countedConn struct {
	net.Conn
	open *atomic.Int64
	once sync.Once
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.open.Add(-1) })
	return c.Conn.Close()
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// checkCaps fails when the generator ever held more connections or
// sending goroutines than its cap.
func (c *loadClient) checkCaps() error {
	if p := c.peak.Load(); p > int64(c.maxConns) {
		return fmt.Errorf("load generator held %d connections at once, cap %d", p, c.maxConns)
	}
	if p := c.peakInFlight.Load(); p > int64(c.maxConns) {
		return fmt.Errorf("load generator had %d requests in flight at once, cap %d", p, c.maxConns)
	}
	return nil
}

// post sends one request and decodes the response.
func (c *loadClient) post(req service.Request, o *outcome, start time.Time) {
	o.req = req
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return
	}
	raise(&c.peakInFlight, c.inFlight.Add(1))
	defer c.inFlight.Add(-1)
	o.sent = time.Since(start)
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		o.done = time.Since(start)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Since(start)
	o.status, o.bytes = resp.StatusCode, len(raw)
	if err != nil {
		o.err = err
		return
	}
	if err := json.Unmarshal(raw, &o.resp); err != nil {
		o.err = fmt.Errorf("decode response (status %d): %w", resp.StatusCode, err)
		return
	}
	if o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", o.status, o.resp.Error)
	}
}

// closedLoop runs clients goroutines, each sending its next request
// only after the previous one answered, until d has passed. A request
// is due when its client becomes free.
func closedLoop(c *loadClient, clients int, d time.Duration, next func(int) service.Request) (outs []*outcome, wall time.Duration) {
	var (
		mu  sync.Mutex
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				due := time.Since(start)
				if due >= d {
					return
				}
				o := &outcome{}
				o.due = due
				c.post(next(int(seq.Add(1)-1)), o, start)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends n requests on a seeded random schedule spread over d,
// whatever the system's speed, using senders goroutines (one connection
// each). Each sender takes the next due request, waits for its due time
// if it is early, and sends it; requests due while every sender is busy
// wait in the generator's backlog, and their latency counts that wait.
func openLoop(c *loadClient, senders, n int, d time.Duration, seed int64, next func(int) service.Request) (outs []*outcome, wall time.Duration) {
	due := arrivalSchedule(n, d, seed)
	outs = make([]*outcome, n)
	var (
		seq atomic.Int64
		wg  sync.WaitGroup
	)
	start := time.Now()
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(seq.Add(1) - 1)
				if i >= n {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				o := &outcome{}
				o.due = due[i]
				c.post(next(i), o, start)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// gapShape is the shape of the Gamma distribution arrival gaps follow:
// random like independent users' arrivals, but with half the coefficient
// of variation of Poisson gaps. With exponential gaps, the tail of a
// run was set by where its seed happened to cluster arrivals.
const gapShape = 4

// arrivalSchedule returns n arrival offsets with Gamma(gapShape) gaps,
// scaled so the arrivals fill [0, d): the count and mean rate are exact
// while the spacing is random.
func arrivalSchedule(n int, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		for k := 0; k < gapShape; k++ {
			gaps[i] += rng.ExpFloat64()
		}
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += gaps[i]
		out[i] = time.Duration(acc / total * float64(d))
	}
	return out
}
