package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webevolve/internal/serve"
	"webevolve/internal/store"
)

type requestKind uint8

const (
	reqGet requestKind = iota
	reqConditional
	reqList
)

type request struct {
	kind requestKind
	idx  int // page index, or site index for reqList
}

// lateAfter is how far past its due time an open-loop request may be sent
// before the generator counts itself late.
const lateAfter = time.Millisecond

// clientConn is one load-generator connection: a keep-alive TCP connection
// to the server, its own seeded request stream, and what it observed.
// Requests are written by hand and responses parsed with net/http, so the
// generator — which shares the box's cores with the server — stays cheap.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	body []byte

	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int // popularity rank -> page index, so hot keys spread over sites

	sent, failed int64
	storeClosed  int64     // failed with 500 "store: closed": the View-to-read window
	problems     []string  // failures that are output mismatches
	getUS        []float64 // page GETs, open loop, from due time
	listMS       []float64 // listings, both phases
	late         int64
	maxLateMS    float64
}

func dialClient(addr string, seed int64, worker int) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*1000 + int64(worker)))
	return &clientConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
		body: make([]byte, serveBodyBytes),
		rng:  rng,
		zipf: rand.NewZipf(rng, 1.1, 1, servePages-1),
		// Every connection ranks pages alike: one hot set for the server.
		perm: rand.New(rand.NewSource(seed)).Perm(servePages),
	}, nil
}

// request builds the n-th request of a stream. The mix is stratified, not
// drawn: every 100th request is a listing and, on serve_static, every 20th
// of the rest a conditional GET (94% GET / 5% conditional / 1% list;
// serve_live 99% / 1%). A listing costs fifty GETs and delays whatever is
// due beside it, so a random 1% would make the share of delayed GETs — and
// with it every tail percentile — vary from run to run with the number and
// spacing of listings drawn. Keys and sites come from the seed: Zipf(1.1)
// over a seeded popularity order on serve_static, uniform on serve_live.
func (cc *clientConn) request(live bool, n int64) request {
	switch {
	case n%100 == 99:
		return request{reqList, cc.rng.Intn(serveSites)}
	case live:
		return request{reqGet, cc.rng.Intn(servePages)}
	case n%20 == 19:
		return request{reqConditional, cc.perm[cc.zipf.Uint64()]}
	default:
		return request{reqGet, cc.perm[cc.zipf.Uint64()]}
	}
}

// waitUntil spins until t. Timer wake-ups in this class of sandbox
// overshoot by up to a millisecond — several requests' worth — so the
// generator polls the clock instead, and it polls without yielding: a worker
// that yields to the Go scheduler is not run again for up to a 4 ms kernel
// tick, and one that yields to the kernel's is starved by a busy server
// thread for as long as that thread runs (every GET due beside a 2 ms
// listing then went out late). A worker only spins between requests, when
// it has nothing in flight; while one is in flight it is parked in the
// poller and its P runs the server's side of the connection, so with at
// most nproc workers spinning never takes a CPU the server is waiting for.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
	}
}

// openLoop is the arrival schedule of an open loop: request n is due at
// start + n/rate, for length. Each of the workers takes the next request
// not yet taken, waits until it is due and sends it — so when every worker
// is stuck behind a slow response, later requests go out late, and because
// send times them from due, the stall counts against each of them.
func openLoop(workers int, rate float64, length time.Duration, send func(worker int, n int64, due time.Time)) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				offset := time.Duration(n) * interval
				if offset >= length {
					return
				}
				due := start.Add(offset)
				waitUntil(due)
				send(w, n, due)
			}
		}()
	}
	wg.Wait()
}

// fail counts a response that does not match the corpus; it returns false
// so a check can return it.
func (cc *clientConn) fail(format string, args ...any) bool {
	cc.failed++
	if len(cc.problems) < 5 {
		cc.problems = append(cc.problems, fmt.Sprintf(format, args...))
	}
	return false
}

// do sends one request and checks the response against the corpus. due is
// zero in the closed loop; in the open loop latency counts from it.
func (cc *clientConn) do(e *serveEnv, req request, due time.Time) {
	sendAt := time.Now()
	from := sendAt
	if !due.IsZero() {
		from = due
		if lag := sendAt.Sub(due); lag > lateAfter {
			cc.late++
			cc.maxLateMS = max(cc.maxLateMS, float64(lag.Microseconds())/1e3)
		}
	}
	cc.sent++
	span := noSpan
	if e.tr != nil {
		span = e.tr.begin(spanClientRequest, e.tr.root, 0)
		e.tr.at(span).req = span
	}
	resp, body, err := cc.roundTrip(e, req, span)
	if span != noSpan {
		e.tr.end(span)
	}
	took := time.Since(from)
	if err != nil {
		// Transport failure: count it and start over on a fresh connection.
		cc.failed++
		cc.redial()
		return
	}
	if resp.StatusCode == http.StatusInternalServerError && bytes.Contains(body, []byte(store.ErrClosed.Error())) {
		// store.Shadowed.View hands out the current collection unpinned, so
		// a Swap landing between a handler's View and its read fails the
		// request (ROADMAP gate; tier-1's TestServeAcrossLiveCrawl owns the
		// bug). That is the program failing, not its output being wrong: the
		// request counts as failed, is not retried, and has no latency.
		cc.failed++
		cc.storeClosed++
		return
	}
	// Only a verified response has a latency.
	switch req.kind {
	case reqList:
		if cc.checkList(e, req.idx, resp, body) {
			cc.listMS = append(cc.listMS, float64(took.Microseconds())/1e3)
		}
	default:
		if cc.checkPage(e, req, resp, body) && !due.IsZero() {
			cc.getUS = append(cc.getUS, float64(took.Nanoseconds())/1e3)
		}
	}
}

func (cc *clientConn) redial() {
	addr := cc.conn.RemoteAddr().String()
	cc.conn.Close()
	if conn, err := net.DialTimeout("tcp", addr, 5*time.Second); err == nil {
		cc.conn = conn
		cc.br.Reset(conn)
	}
}

func (cc *clientConn) roundTrip(e *serveEnv, req request, span int32) (*http.Response, []byte, error) {
	b := append(cc.wbuf[:0], "GET /v1/pages"...)
	if req.kind == reqList {
		b = append(b, "?prefix="...)
		b = append(b, e.c.prefixes[req.idx]...)
		b = append(b, "&limit="...)
		b = strconv.AppendInt(b, serveListLimit, 10)
	} else {
		b = append(b, '/')
		b = append(b, e.c.urls[req.idx]...)
	}
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if req.kind == reqConditional {
		b = append(b, "If-None-Match: \""...)
		b = strconv.AppendUint(b, (*e.c.sums[0].Load())[req.idx], 16)
		b = append(b, "\"\r\n"...)
	}
	if span != noSpan {
		b = append(b, benchReqHeader+": "...)
		b = strconv.AppendInt(b, int64(span), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	cc.wbuf = b
	if _, err := cc.conn.Write(b); err != nil {
		return nil, nil, err
	}
	resp, err := http.ReadResponse(cc.br, nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	var body []byte
	if n := resp.ContentLength; n >= 0 && n <= int64(len(cc.body)) {
		body = cc.body[:n]
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	return resp, body, err
}

func etagOf(sum uint64) string { return `"` + strconv.FormatUint(sum, 16) + `"` }

func (cc *clientConn) checkPage(e *serveEnv, req request, resp *http.Response, body []byte) bool {
	url := e.c.urls[req.idx]
	gen, err := strconv.ParseUint(resp.Header.Get("X-Webevolve-Generation"), 10, 64)
	sums := e.c.generation(gen)
	if err != nil || sums == nil {
		return cc.fail("%s: status %d, unknown generation %q", url, resp.StatusCode, resp.Header.Get("X-Webevolve-Generation"))
	}
	if got, want := resp.Header.Get("ETag"), etagOf(sums[req.idx]); got != want {
		return cc.fail("%s gen %d: ETag %s, want %s", url, gen, got, want)
	}
	if req.kind == reqConditional {
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			return cc.fail("%s: conditional GET answered %d with %d body bytes, want 304", url, resp.StatusCode, len(body))
		}
		return true
	}
	if resp.StatusCode != http.StatusOK {
		return cc.fail("%s: status %d", url, resp.StatusCode)
	}
	if len(body) != serveBodyBytes ||
		binary.LittleEndian.Uint64(body[0:]) != gen ||
		binary.LittleEndian.Uint64(body[8:]) != uint64(req.idx) ||
		!bytes.Equal(body[16:], e.c.filler(int(gen), req.idx)) {
		return cc.fail("%s gen %d: body does not match the corpus", url, gen)
	}
	return true
}

func (cc *clientConn) checkList(e *serveEnv, site int, resp *http.Response, body []byte) bool {
	prefix := e.c.prefixes[site]
	if resp.StatusCode != http.StatusOK {
		return cc.fail("list %s: status %d", prefix, resp.StatusCode)
	}
	var list serve.PageList
	if err := json.Unmarshal(body, &list); err != nil {
		return cc.fail("list %s: %v", prefix, err)
	}
	sums := e.c.generation(list.Generation)
	if sums == nil {
		return cc.fail("list %s: unknown generation %d", prefix, list.Generation)
	}
	// Every site holds servePerSite pages, so a listing of one is exactly
	// the first serveListLimit of them, in order, with a cursor.
	first := site * servePerSite
	if list.Count != serveListLimit || len(list.Pages) != serveListLimit || list.Next != e.c.urls[first+serveListLimit-1] {
		return cc.fail("list %s: %d pages, next %q", prefix, len(list.Pages), list.Next)
	}
	if !sort.SliceIsSorted(list.Pages, func(i, j int) bool { return list.Pages[i].URL < list.Pages[j].URL }) {
		return cc.fail("list %s: not sorted", prefix)
	}
	for i, pg := range list.Pages {
		if !strings.HasPrefix(pg.URL, prefix) || pg.URL != e.c.urls[first+i] ||
			pg.ETag != etagOf(sums[first+i]) || pg.ContentBytes != serveBodyBytes || pg.Generation != list.Generation {
			return cc.fail("list %s gen %d: entry %d is %+v", prefix, list.Generation, i, pg)
		}
	}
	return true
}
