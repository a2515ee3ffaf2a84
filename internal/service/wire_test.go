package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"osprey/internal/codec"
	"osprey/internal/core"
)

// fillValue sets v (and everything reachable from it) to non-zero values
// derived from seed, so a round-trip losing any field is observable.
func fillValue(v reflect.Value, seed int) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", seed))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(seed + 3))
	case reflect.Uint64:
		v.SetUint(uint64(seed + 5))
	case reflect.Float64:
		v.SetFloat(float64(seed) + 0.5)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < 2; i++ {
			fillValue(s.Index(i), seed+i+1)
		}
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMapWithSize(v.Type(), 2)
		for i := 0; i < 2; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			fillValue(k, seed+10*i+1)
			val := reflect.New(v.Type().Elem()).Elem()
			fillValue(val, seed+10*i+2)
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(v.Field(i), seed+i+1)
		}
	default:
		panic(fmt.Sprintf("fillValue: unsupported kind %v — extend the test", v.Kind()))
	}
}

// TestWireFieldCoverage fails when a request or response field is added
// without v2 codec support: every field is reflectively set non-zero, round
// tripped through the binary codec, and compared field by field.
func TestWireFieldCoverage(t *testing.T) {
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 0)
	buf := appendRequest(nil, &req)
	var dec codec.Dec
	dec.Reset(buf)
	var got request
	if err := decodeRequest(&dec, &got); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if !dec.Done() {
		t.Fatal("decodeRequest left trailing bytes")
	}
	rv, gv := reflect.ValueOf(req), reflect.ValueOf(got)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("request.%s lost in v2 round trip: sent %v, got %v — add it to appendRequest/decodeRequest",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}

	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 100)
	buf = appendResponse(nil, &resp)
	dec.Reset(buf)
	var gotR response
	if err := decodeResponse(&dec, &gotR); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if !dec.Done() {
		t.Fatal("decodeResponse left trailing bytes")
	}
	rv, gv = reflect.ValueOf(resp), reflect.ValueOf(gotR)
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("response.%s lost in v2 round trip: sent %v, got %v — add it to appendResponse/decodeResponse",
				rv.Type().Field(i).Name, rv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// TestWireZeroValuesRoundTrip pins the canonical-zero contract: zero structs
// survive as zero (nil slices stay nil, nil maps stay nil).
func TestWireZeroValuesRoundTrip(t *testing.T) {
	var dec codec.Dec
	dec.Reset(appendRequest(nil, &request{}))
	var req request
	if err := decodeRequest(&dec, &req); err != nil {
		t.Fatalf("decodeRequest: %v", err)
	}
	if !reflect.DeepEqual(req, request{}) {
		t.Fatalf("zero request round trip = %+v", req)
	}
	dec.Reset(appendResponse(nil, &response{}))
	var resp response
	if err := decodeResponse(&dec, &resp); err != nil {
		t.Fatalf("decodeResponse: %v", err)
	}
	if !reflect.DeepEqual(resp, response{}) {
		t.Fatalf("zero response round trip = %+v", resp)
	}
}

// TestWireDecodeNeverPanics drives the decoders over every truncation of a
// valid message and over corrupt prefixes: they must return errors, never
// panic, never hand back partially-filled collections.
func TestWireDecodeNeverPanics(t *testing.T) {
	// Version-appended tail fields make some truncation points byte-identical
	// to a valid older-version message, and the decoder accepts those by
	// design — that tolerance is the append-only evolution contract. A cut at
	// any other offset tears a mandatory field and must error.
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 0)
	full := appendRequest(nil, &req)
	// The v4 request tail is Watch then SubID; cuts at either field boundary
	// decode as an older writer with the rest defaulted.
	watchLen := len(codec.AppendString(nil, req.Watch))
	subIDLen := len(binary.AppendUvarint(nil, req.SubID))
	reqCuts := map[int]request{}
	{
		atV3 := req
		atV3.Watch, atV3.SubID = "", 0
		reqCuts[len(full)-watchLen-subIDLen] = atV3
		atWatch := req
		atWatch.SubID = 0
		reqCuts[len(full)-subIDLen] = atWatch
	}
	var dec codec.Dec
	for i := 0; i < len(full); i++ {
		dec.Reset(full[:i])
		var r request
		err := decodeRequest(&dec, &r)
		if want, ok := reqCuts[i]; ok {
			if err != nil {
				t.Fatalf("decodeRequest rejected older-version-length message at %d: %v", i, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("older-version decode at %d = %+v", i, r)
			}
			continue
		}
		if err == nil {
			t.Fatalf("decodeRequest accepted truncation at %d/%d", i, len(full))
		}
	}
	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 7)
	fullR := appendResponse(nil, &resp)
	// The response tail is Overloaded (v3), then Done and Events (v4). The
	// Events encoding length is measured by re-encoding without them (the
	// +1 accounts for the zero count byte that encoding still writes).
	respNE := resp
	respNE.Events = nil
	eventsLen := len(fullR) - len(appendResponse(nil, &respNE)) + 1
	countStart := len(fullR) - eventsLen
	respCuts := map[int]response{}
	{
		atV2 := resp
		atV2.Overloaded, atV2.Done, atV2.Events = false, false, nil
		respCuts[countStart-2] = atV2
		atV3 := resp
		atV3.Done, atV3.Events = false, nil
		respCuts[countStart-1] = atV3
		atDone := resp
		atDone.Events = nil
		respCuts[countStart] = atDone
	}
	for i := 0; i < len(fullR); i++ {
		dec.Reset(fullR[:i])
		var r response
		err := decodeResponse(&dec, &r)
		if want, ok := respCuts[i]; ok {
			if err != nil {
				t.Fatalf("decodeResponse rejected older-version-length message at %d: %v", i, err)
			}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("older-version decode at %d = %+v", i, r)
			}
			continue
		}
		if err == nil {
			t.Fatalf("decodeResponse accepted truncation at %d/%d", i, len(fullR))
		}
		if !reflect.DeepEqual(r, response{}) {
			t.Fatalf("truncated decode at %d returned partial response %+v", i, r)
		}
	}
	// A length prefix pointing past the buffer must not drive a huge
	// allocation or an out-of-bounds read.
	dec.Reset([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	var r request
	if err := decodeRequest(&dec, &r); err == nil {
		t.Fatal("decodeRequest accepted an over-long length prefix")
	}
}

// FuzzWireCodec fuzzes the frame and message decoders with arbitrary bytes:
// decoding must never panic, and any bytes that decode successfully must
// re-encode and re-decode to the same value (the codec is canonical).
func FuzzWireCodec(f *testing.F) {
	var req request
	fillValue(reflect.ValueOf(&req).Elem(), 1)
	f.Add(appendRequest(nil, &req))
	var resp response
	fillValue(reflect.ValueOf(&resp).Elem(), 2)
	f.Add(appendResponse(nil, &resp))
	f.Add(appendRequest(nil, &request{Op: "submit", Payload: "p"}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec codec.Dec
		dec.Reset(data)
		var q request
		if err := decodeRequest(&dec, &q); err == nil {
			re := appendRequest(nil, &q)
			dec.Reset(re)
			var q2 request
			if err := decodeRequest(&dec, &q2); err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			if !reflect.DeepEqual(q, q2) {
				t.Fatalf("request not canonical: %+v != %+v", q, q2)
			}
		}
		dec.Reset(data)
		var p response
		if err := decodeResponse(&dec, &p); err == nil {
			re := appendResponse(nil, &p)
			dec.Reset(re)
			var p2 response
			if err := decodeResponse(&dec, &p2); err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			if !reflect.DeepEqual(p, p2) {
				t.Fatalf("response not canonical: %+v != %+v", p, p2)
			}
		}
		// Frame reader over the same bytes: must terminate with a value or
		// an error, never panic, never allocate beyond the frame bound.
		var fio frameIO
		fio.readFrame(bufio.NewReader(bytes.NewReader(data)))
	})
}

// TestWireTaskZeroTimestamps is the satellite fix's unit pin: an unstarted
// task's zero Started/Stopped survive the wire mapping as zero.
func TestWireTaskZeroTimestamps(t *testing.T) {
	task := core.Task{ID: 1, ExpID: "e", Status: core.StatusQueued,
		Payload: "p", Created: time.Unix(0, 12345)}
	w := toWireTask(task)
	if w.Started != 0 || w.Stopped != 0 {
		t.Fatalf("zero timestamps encoded as %d/%d, want 0/0", w.Started, w.Stopped)
	}
	back := fromWireTask(w)
	if !back.Started.IsZero() || !back.Stopped.IsZero() {
		t.Fatalf("zero timestamps decoded as %v/%v, want zero", back.Started, back.Stopped)
	}
	if !back.Created.Equal(task.Created) {
		t.Fatalf("Created = %v, want %v", back.Created, task.Created)
	}
	// And over a live connection: GetTask on a queued task.
	_, c := newServerClient(t)
	id, err := submitID(c, "z", 1, "p")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetTask(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Started.IsZero() || !got.Stopped.IsZero() {
		t.Fatalf("unstarted task arrived with Started=%v Stopped=%v, want zero", got.Started, got.Stopped)
	}
	if got.Created.IsZero() {
		t.Fatal("Created should not be zero")
	}
}

// TestWireMalformedFrame pins the v2 malformed path: a garbage frame after a
// valid preamble closes the connection and bumps the malformed counter, and
// a bad version byte does the same.
func TestWireMalformedFrame(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sendRaw := func(raw []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// Half-close so a server blocked mid-frame sees the hangup at once.
		conn.(*net.TCPConn).CloseWrite()
		// The server must close the connection on a malformed frame.
		conn.SetReadDeadline(time.Now().Add(waitMax))
		buf := make([]byte, 1)
		if _, err := conn.Read(buf); err == nil {
			t.Fatal("server kept the connection open after a malformed frame")
		}
	}

	before := srv.met.malformed.Value()
	// Oversized length prefix: uvarint(1<<40) exceeds maxFrame.
	sendRaw(append([]byte{wireMagic, wireVersion}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20))
	// Torn frame: declares 100 bytes, ships 3, hangs up.
	sendRaw(append([]byte{wireMagic, wireVersion}, 100, 1, 2, 3))
	// Future protocol version.
	sendRaw([]byte{wireMagic, 0x7F})
	if got := srv.met.malformed.Value(); got != before+3 {
		t.Fatalf("malformed counter = %d, want %d", got, before+3)
	}
}

// TestPipelinedOutOfOrder proves the multiplexing contract end to end: a
// long-poll in flight on a Client does not block other calls on the same
// connection, and the server answers them out of order.
func TestPipelinedOutOfOrder(t *testing.T) {
	db, c := newServerClient(t)
	_ = db
	pollDone := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), waitMax)
	defer cancel()
	go func() {
		// Long-poll for a task that is only submitted after the fast calls
		// below complete — on the same connection.
		res, err := c.QueryTasks(ctx, 42, 1, "pipeline")
		if err == nil && len(res.Tasks) != 1 {
			err = fmt.Errorf("QueryTasks = %+v", res)
		}
		pollDone <- err
	}()
	// Give the poll a moment to be parked server-side.
	time.Sleep(20 * time.Millisecond)
	fastStart := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping behind a long-poll: %v", err)
	}
	if _, err := c.Submit(context.Background(), "fast", 7, "other-type"); err != nil {
		t.Fatalf("Submit behind a long-poll: %v", err)
	}
	if d := time.Since(fastStart); d > time.Second {
		t.Fatalf("pipelined calls took %v — head-of-line blocked behind the poll", d)
	}
	// Now satisfy the poll.
	if _, err := c.Submit(context.Background(), "exp", 42, "wanted"); err != nil {
		t.Fatal(err)
	}
	if err := <-pollDone; err != nil {
		t.Fatalf("long-poll: %v", err)
	}
}

// TestPipelinedConcurrentCallers hammers one shared Client from many
// goroutines (the new concurrency contract) and checks every call lands.
func TestPipelinedConcurrentCallers(t *testing.T) {
	db, c := newServerClient(t)
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Submit(context.Background(), "conc", 1, fmt.Sprintf("%d-%d", g, i)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("concurrent submit: %v", err)
	}
	counts, err := db.Counts(context.Background(), "conc")
	if err != nil {
		t.Fatal(err)
	}
	if counts[core.StatusQueued] != goroutines*per {
		t.Fatalf("queued = %d, want %d", counts[core.StatusQueued], goroutines*per)
	}
}

// TestJSONV1Interop drives a v2 server with pinned JSON-v1 bytes over raw
// TCP — the exact bytes a pre-v2 client emits — through a full
// submit→pop→report→pop_results cycle, then runs the same cycle with a v2
// client against the same server process (the mixed-version acceptance
// criterion).
func TestJSONV1Interop(t *testing.T) {
	db, err := core.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := Serve(db, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(waitMax))
	br := bufio.NewReader(conn)
	call := func(line string) response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		reply, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read reply to %q: %v", line, err)
		}
		var resp response
		if err := json.Unmarshal([]byte(reply), &resp); err != nil {
			t.Fatalf("parse reply %q: %v", strings.TrimSpace(reply), err)
		}
		if !resp.OK {
			t.Fatalf("%q failed: %s", line, resp.Error)
		}
		return resp
	}

	// Pinned v1 request bytes: field names and framing must never drift.
	sub := call(`{"op":"submit","exp_id":"v1","work_type":9,"payload":"payload-v1"}`)
	if sub.TaskID == 0 {
		t.Fatal("submit returned no task id")
	}
	popped := call(`{"op":"query_tasks","work_type":9,"n":1,"pool":"v1pool","wait_ms":2000}`)
	if len(popped.Tasks) != 1 || popped.Tasks[0].ID != sub.TaskID || popped.Tasks[0].Payload != "payload-v1" {
		t.Fatalf("query_tasks = %+v", popped)
	}
	call(fmt.Sprintf(`{"op":"report","task_id":%d,"work_type":9,"result":"done-v1"}`, sub.TaskID))
	res := call(fmt.Sprintf(`{"op":"pop_results","task_ids":[%d],"n":1,"wait_ms":2000}`, sub.TaskID))
	if len(res.Results) != 1 || res.Results[0].Result != "done-v1" {
		t.Fatalf("pop_results = %+v", res)
	}

	// Same cycle, same server, v2 client.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	s2, err := c.Submit(ctx, "v2", 10, "payload-v2")
	if err != nil {
		t.Fatal(err)
	}
	tctx, cancel := context.WithTimeout(ctx, waitMax)
	defer cancel()
	tasks, err := c.QueryTasks(tctx, 10, 1, "v2pool")
	if err != nil || len(tasks.Tasks) != 1 || tasks.Tasks[0].ID != s2.ID {
		t.Fatalf("v2 QueryTasks = %+v, %v", tasks, err)
	}
	if _, err := c.Report(ctx, s2.ID, 10, "done-v2"); err != nil {
		t.Fatal(err)
	}
	rctx, cancel2 := context.WithTimeout(ctx, waitMax)
	defer cancel2()
	got, err := c.PopResults(rctx, []int64{s2.ID}, 1)
	if err != nil || len(got.Results) != 1 || got.Results[0].Result != "done-v2" {
		t.Fatalf("v2 PopResults = %+v, %v", got, err)
	}
}

// TestWireFrameRoundTrip pins the framing layer: IDs and bodies survive,
// back-to-back frames parse in order, and a frame beyond the bound errors.
func TestWireFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var fw frameIO
	reqs := []request{
		{Op: "ping"},
		{Op: "submit", Payload: strings.Repeat("x", 1000), TaskIDs: []int64{1, -2, 3}},
		{Op: "statuses", Token: 1 << 60},
	}
	for i, q := range reqs {
		if err := fw.writeRequest(bw, uint64(i)+7, &q); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	br := bufio.NewReader(&buf)
	var fr frameIO
	for i, want := range reqs {
		id, got, err := fr.readRequest(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != uint64(i)+7 {
			t.Fatalf("frame %d: id = %d, want %d", i, id, uint64(i)+7)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
	}
}
