package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled request of an open loop.
type op struct {
	due  time.Duration // offset from the schedule's start
	kind int
	arg  int // index into the workload's request table
}

// outcome is what happened to one op. Latency runs from the op's due
// time, so a stall also charges the requests that queued behind it. The
// one exception is an op whose sender was idle and slept until the due
// time: up to timerSlack of that sleep's overshoot is excused, since the
// runtime's timers wake up to a millisecond late and that error belongs
// to the generator. Any later wake-up is charged to the request, because
// a GC pause or CPU contention in the servers, which share the process,
// also delays it. The whole overshoot is reported as the generator's
// lateness.
type outcome struct {
	ok      bool
	sent    time.Duration // send offset from the schedule's start; -1 if abandoned
	latency time.Duration
}

// loadResult is one open-loop run.
type loadResult struct {
	outs []outcome
	// backlog counts ops already due at the schedule's end that had not
	// been sent by then.
	backlog int
	// lateMs is how late the generator's own timer sent each op that
	// found an idle sender.
	lateMs []float64
}

// timerSlack is the part of a sleep's overshoot that is not charged to
// the request: the wake-up error of the runtime's timers.
const timerSlack = time.Millisecond

// abandonAfter bounds how long past the schedule's end the generator
// keeps sending; later ops are abandoned and count as failed.
const abandonAfter = 2 * time.Second

// constantRate lays out n ops evenly at rate per second, kind chosen by
// pick(i).
func constantRate(rate float64, d time.Duration, pick func(i int) (kind, arg int)) []op {
	n := int(rate * d.Seconds())
	ops := make([]op, n)
	for i := range ops {
		k, a := pick(i)
		ops[i] = op{due: time.Duration(float64(i) / rate * float64(time.Second)), kind: k, arg: a}
	}
	return ops
}

// openLoop sends each op at its due time from at most `senders`
// goroutines, one request in flight per sender, and returns when every
// op is done or abandoned. do performs op i and reports success.
func openLoop(sched []op, senders int, do func(sender, i int) bool) loadResult {
	res := loadResult{outs: make([]outcome, len(sched))}
	if len(sched) == 0 {
		return res
	}
	end := sched[len(sched)-1].due
	late := make([]float64, len(sched))
	for i := range late {
		late[i] = -1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(sender int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				o := sched[i]
				ref := o.due
				slept := false
				if wait := o.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
					slept = true
				}
				sent := time.Since(start)
				if sent > end+abandonAfter {
					res.outs[i] = outcome{sent: -1}
					continue
				}
				if slept {
					ref += min(sent-o.due, timerSlack)
					late[i] = float64(sent-o.due) / 1e6
				}
				ok := do(sender, i)
				res.outs[i] = outcome{ok: ok, sent: sent, latency: time.Since(start) - ref}
			}
		}(s)
	}
	wg.Wait()
	for i, o := range res.outs {
		if sched[i].due <= end && (o.sent < 0 || o.sent > end) {
			res.backlog++
		}
		if late[i] >= 0 {
			res.lateMs = append(res.lateMs, late[i])
		}
	}
	return res
}

// latenciesMs returns the latencies of ops of one kind in milliseconds,
// with +Inf for a failed or abandoned op: it misses every limit.
func (lr loadResult) latenciesMs(sched []op, kind int) []float64 {
	var out []float64
	for i, o := range lr.outs {
		if sched[i].kind != kind {
			continue
		}
		if o.ok {
			out = append(out, float64(o.latency)/1e6)
		} else {
			out = append(out, math.Inf(1))
		}
	}
	return out
}

// maxWindows caps how many windows windowed cuts a run into.
const maxWindows = 9

// windowed cuts the ops of one kind into equal spans of due time, as many
// (up to maxWindows) as leave every span ten samples beyond its
// q-quantile, takes the q-quantile of each span's latencies and returns
// their median. One span disturbed by the host (a descheduled vCPU, a
// noisy neighbour) then cannot move the figure alone.
func (lr loadResult) windowed(sched []op, kind int, q float64) float64 {
	var idx []int
	for i := range sched {
		if sched[i].kind == kind {
			idx = append(idx, i)
		}
	}
	windows := min(maxWindows, max(1, int(float64(len(idx))*(1-q)/10)))
	qs := make([]float64, windows)
	for w := range qs {
		var xs []float64
		for _, i := range idx[w*len(idx)/windows : (w+1)*len(idx)/windows] {
			if lr.outs[i].ok {
				xs = append(xs, float64(lr.outs[i].latency)/1e6)
			} else {
				xs = append(xs, math.Inf(1))
			}
		}
		qs[w] = quantile(xs, q)
	}
	return median(qs)
}

func (lr loadResult) failures() int {
	n := 0
	for _, o := range lr.outs {
		if !o.ok {
			n++
		}
	}
	return n
}

// zipfPicker draws indices in [0,n) with a Zipf(1.1) skew over a seeded
// permutation, so the hot keys are spread over the key space. The
// exponent is an assumption (README.md): no access trace of this system
// exists to fit it to.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, n int) *zipfPicker {
	return &zipfPicker{z: rand.NewZipf(rng, 1.1, 1, uint64(n-1)), perm: rng.Perm(n)}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }

// newClient returns an HTTP client holding at most conns connections per
// host, so the load never uses more connections than senders.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// httpReply is one buffered response.
type httpReply struct {
	status  int
	body    []byte
	version string // X-Snapshot-Version, when the server sets it
}

func doHTTP(c *http.Client, method, url string, body []byte) (httpReply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return httpReply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return httpReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpReply{}, err
	}
	return httpReply{status: resp.StatusCode, body: data, version: resp.Header.Get("X-Snapshot-Version")}, nil
}
