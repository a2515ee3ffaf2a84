package service

// Binary wire protocol v2: a length-prefixed, request-ID-framed binary codec
// for the service's request/response messages. It is the protocol the Go
// client speaks; newline-delimited JSON (v1) is the language-neutral protocol
// for clients in any other language, served on the same port.
//
// Connection layout. A v2 client opens with a two-byte preamble — the magic
// byte wireMagic (which can never begin a JSON value) and a version byte —
// and then ships frames. The server sniffs the first byte of every accepted
// connection: '{' (or anything that is not the magic) routes to the
// newline-delimited JSON v1 loop, the magic routes here. The choice is per
// connection, so JSON and binary clients share one server.
//
// Frame layout, identical in both directions:
//
//	uvarint frameLen | uvarint requestID | message
//
// where frameLen counts the bytes after itself and message is the
// field-ordered binary encoding of one request (client→server) or response
// (server→client). Request IDs are minted by the client and echoed verbatim
// by the server; they are what lets responses return out of order, so the
// server can park long-poll ops on per-request goroutines and the client can
// pipeline concurrent calls over one connection.
//
// Message encoding. Fields are written in a fixed order with no tags and no
// reflection, using the primitives of internal/codec: varints for ints
// (zigzag for signed), a uvarint count followed by elements for
// strings/slices/maps, one byte for bools, 8 fixed little-endian bytes for
// float64s. Every field of the struct is always written — zero values cost
// one byte — so the decoder is a straight-line field reader. Evolution rule: new fields append at the end of the message
// and bump wireVersion; the decoder rejects versions newer than its own at
// the preamble, and a decode that runs out of bytes mid-message fails loudly
// rather than guessing (TestWireFieldCoverage pins that every struct field
// has codec support).
//
// The codec is deliberately allocation-light: encoders append into a
// reusable per-connection scratch buffer, decoders read frames into a
// reusable buffer and allocate only what escapes into the decoded struct
// (strings, slices, maps). See BenchmarkWireCodec for the measured contrast
// with the JSON codec.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"

	"osprey/internal/codec"
)

const (
	// wireMagic is the first byte a v2 client sends. 0xF5 is an invalid
	// leading byte for both JSON and UTF-8 text, so sniffing it against '{'
	// can never misclassify a JSON client.
	wireMagic = 0xF5
	// wireVersion is the protocol version this build speaks. Servers accept
	// any version from 1 through wireVersion (the codec only ever appends
	// fields); clients send exactly wireVersion.
	//
	// v3 appended response.Overloaded (admission-control shed marker). A v2
	// peer's decoder ignores the trailing byte; a v3 decoder reading a v2
	// writer's message sees an exhausted buffer and defaults the field
	// (codec.Dec.More) — both directions stay compatible across a rolling
	// upgrade.
	//
	// v4 appended the watch subsystem's fields: request.Watch/SubID and
	// response.Done/Events (server-push task-state transition frames). Same
	// contract: older writers leave the tail absent and the fields default.
	wireVersion = 4
	// maxFrame bounds one frame's decoded size, matching the JSON path's
	// per-message bound so a corrupt or hostile length prefix cannot balloon
	// memory.
	maxFrame = maxLine
)

// --- encoding ---

// appendRequest encodes req after the frame's request ID. Field order is the
// wire contract; append new fields at the END and bump wireVersion.
func appendRequest(buf []byte, req *request) []byte {
	buf = codec.AppendString(buf, req.Op)
	buf = codec.AppendString(buf, req.Trace)
	buf = codec.AppendBool(buf, req.Fwd)
	buf = binary.AppendUvarint(buf, req.Token)
	buf = binary.AppendVarint(buf, req.WaitMS)
	buf = codec.AppendString(buf, req.Level)
	buf = codec.AppendString(buf, req.DedupKey)
	buf = codec.AppendStrings(buf, req.DedupKeys)
	buf = codec.AppendString(buf, req.ExpID)
	buf = binary.AppendVarint(buf, int64(req.WorkType))
	buf = codec.AppendString(buf, req.Payload)
	buf = binary.AppendVarint(buf, int64(req.Priority))
	buf = codec.AppendStrings(buf, req.Tags)
	buf = binary.AppendVarint(buf, req.TaskID)
	buf = codec.AppendInt64s(buf, req.TaskIDs)
	buf = binary.AppendVarint(buf, int64(req.N))
	buf = codec.AppendString(buf, req.Pool)
	buf = binary.AppendVarint(buf, req.TimeMS)
	buf = codec.AppendString(buf, req.Result)
	buf = codec.AppendInts(buf, req.Priorities)
	buf = codec.AppendStrings(buf, req.Payloads)
	// --- fields appended in v4 ---
	buf = codec.AppendString(buf, req.Watch)
	buf = binary.AppendUvarint(buf, req.SubID)
	return buf
}

func appendWireTask(buf []byte, t *wireTask) []byte {
	buf = binary.AppendVarint(buf, t.ID)
	buf = codec.AppendString(buf, t.ExpID)
	buf = binary.AppendVarint(buf, int64(t.WorkType))
	buf = codec.AppendString(buf, t.Status)
	buf = codec.AppendString(buf, t.Payload)
	buf = codec.AppendString(buf, t.Result)
	buf = codec.AppendString(buf, t.Pool)
	buf = binary.AppendVarint(buf, int64(t.Priority))
	buf = binary.AppendVarint(buf, t.Created)
	buf = binary.AppendVarint(buf, t.Started)
	buf = binary.AppendVarint(buf, t.Stopped)
	return buf
}

// appendResponse encodes resp after the frame's request ID. Same evolution
// rule as appendRequest: new fields append at the end only.
func appendResponse(buf []byte, resp *response) []byte {
	buf = codec.AppendBool(buf, resp.OK)
	buf = codec.AppendString(buf, resp.Error)
	buf = codec.AppendBool(buf, resp.Timeout)
	buf = codec.AppendBool(buf, resp.Transient)
	buf = binary.AppendUvarint(buf, resp.Token)
	buf = binary.AppendVarint(buf, resp.TaskID)
	buf = codec.AppendInt64s(buf, resp.TaskIDs)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Tasks)))
	for i := range resp.Tasks {
		buf = appendWireTask(buf, &resp.Tasks[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.Results)))
	for i := range resp.Results {
		buf = binary.AppendVarint(buf, resp.Results[i].ID)
		buf = codec.AppendString(buf, resp.Results[i].Result)
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.StatusMap)))
	for id, st := range resp.StatusMap {
		buf = binary.AppendVarint(buf, id)
		buf = codec.AppendString(buf, st)
	}
	buf = binary.AppendUvarint(buf, uint64(len(resp.PrioMap)))
	for id, p := range resp.PrioMap {
		buf = binary.AppendVarint(buf, id)
		buf = binary.AppendVarint(buf, int64(p))
	}
	buf = binary.AppendVarint(buf, int64(resp.Count))
	buf = binary.AppendUvarint(buf, uint64(len(resp.CountsMap)))
	for st, n := range resp.CountsMap {
		buf = codec.AppendString(buf, st)
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = codec.AppendStrings(buf, resp.TagList)
	buf = codec.AppendString(buf, resp.ResultText)
	buf = codec.AppendString(buf, resp.Role)
	buf = codec.AppendString(buf, resp.NodeID)
	buf = codec.AppendString(buf, resp.LeaderSvc)
	buf = binary.AppendUvarint(buf, resp.Term)
	buf = binary.AppendUvarint(buf, resp.Applied)
	buf = codec.AppendStrings(buf, resp.PeerSvcs)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Stats)))
	for k, v := range resp.Stats {
		buf = codec.AppendString(buf, k)
		buf = codec.AppendFloat64(buf, v)
	}
	// --- fields appended in v3 ---
	buf = codec.AppendBool(buf, resp.Overloaded)
	// --- fields appended in v4 ---
	buf = codec.AppendBool(buf, resp.Done)
	buf = binary.AppendUvarint(buf, uint64(len(resp.Events)))
	for i := range resp.Events {
		ev := &resp.Events[i]
		buf = binary.AppendUvarint(buf, ev.Token)
		buf = binary.AppendVarint(buf, ev.TaskID)
		buf = binary.AppendVarint(buf, int64(ev.WorkType))
		buf = codec.AppendString(buf, ev.Status)
		buf = binary.AppendVarint(buf, int64(ev.Depth))
		buf = codec.AppendBool(buf, ev.Resync)
	}
	return buf
}

// --- decoding ---

func decodeRequest(d *codec.Dec, req *request) error {
	req.Op = d.Str()
	req.Trace = d.Str()
	req.Fwd = d.Bool()
	req.Token = d.Uvarint()
	req.WaitMS = d.Varint()
	req.Level = d.Str()
	req.DedupKey = d.Str()
	req.DedupKeys = d.Strings()
	req.ExpID = d.Str()
	req.WorkType = int(d.Varint())
	req.Payload = d.Str()
	req.Priority = int(d.Varint())
	req.Tags = d.Strings()
	req.TaskID = d.Varint()
	req.TaskIDs = d.Int64s()
	req.N = int(d.Varint())
	req.Pool = d.Str()
	req.TimeMS = d.Varint()
	req.Result = d.Str()
	req.Priorities = d.Ints()
	req.Payloads = d.Strings()
	// v4 tail: absent when the writer is older, defaulting to zero values.
	if d.More() {
		req.Watch = d.Str()
	}
	if d.More() {
		req.SubID = d.Uvarint()
	}
	return d.Err()
}

func decodeWireTask(d *codec.Dec, t *wireTask) {
	t.ID = d.Varint()
	t.ExpID = d.Str()
	t.WorkType = int(d.Varint())
	t.Status = d.Str()
	t.Payload = d.Str()
	t.Result = d.Str()
	t.Pool = d.Str()
	t.Priority = int(d.Varint())
	t.Created = d.Varint()
	t.Started = d.Varint()
	t.Stopped = d.Varint()
}

func decodeResponse(d *codec.Dec, resp *response) error {
	// Start from zero: the caller reuses resp across frames, and collection
	// fields below are only assigned when non-empty on the wire — without
	// this a frame with an empty Tasks (or Events) would inherit the previous
	// frame's slice.
	*resp = response{}
	resp.OK = d.Bool()
	resp.Error = d.Str()
	resp.Timeout = d.Bool()
	resp.Transient = d.Bool()
	resp.Token = d.Uvarint()
	resp.TaskID = d.Varint()
	resp.TaskIDs = d.Int64s()
	if n := d.Count(); n > 0 {
		resp.Tasks = make([]wireTask, n)
		for i := range resp.Tasks {
			decodeWireTask(d, &resp.Tasks[i])
		}
	}
	if n := d.Count(); n > 0 {
		resp.Results = make([]wireResult, n)
		for i := range resp.Results {
			resp.Results[i].ID = d.Varint()
			resp.Results[i].Result = d.Str()
		}
	}
	if n := d.Count(); n > 0 {
		resp.StatusMap = make(map[int64]string, n)
		for i := 0; i < n; i++ {
			id := d.Varint()
			resp.StatusMap[id] = d.Str()
		}
	}
	if n := d.Count(); n > 0 {
		resp.PrioMap = make(map[int64]int, n)
		for i := 0; i < n; i++ {
			id := d.Varint()
			resp.PrioMap[id] = int(d.Varint())
		}
	}
	resp.Count = int(d.Varint())
	if n := d.Count(); n > 0 {
		resp.CountsMap = make(map[string]int, n)
		for i := 0; i < n; i++ {
			st := d.Str()
			resp.CountsMap[st] = int(d.Varint())
		}
	}
	resp.TagList = d.Strings()
	resp.ResultText = d.Str()
	resp.Role = d.Str()
	resp.NodeID = d.Str()
	resp.LeaderSvc = d.Str()
	resp.Term = d.Uvarint()
	resp.Applied = d.Uvarint()
	resp.PeerSvcs = d.Strings()
	if n := d.Count(); n > 0 {
		resp.Stats = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			k := d.Str()
			resp.Stats[k] = d.Float64()
		}
	}
	// v3 tail: absent when the writer is older, defaulting to false.
	if d.More() {
		resp.Overloaded = d.Bool()
	}
	// v4 tail: watch push fields.
	if d.More() {
		resp.Done = d.Bool()
	}
	if d.More() {
		if n := d.Count(); n > 0 {
			resp.Events = make([]wireEvent, n)
			for i := range resp.Events {
				ev := &resp.Events[i]
				ev.Token = d.Uvarint()
				ev.TaskID = d.Varint()
				ev.WorkType = int(d.Varint())
				ev.Status = d.Str()
				ev.Depth = int(d.Varint())
				ev.Resync = d.Bool()
			}
		}
	}
	if d.Err() != nil {
		// A torn frame must not hand half-decoded collections to the caller.
		*resp = response{}
	}
	return d.Err()
}

// --- framing ---

// frameIO owns one side's reusable frame buffers: an encode scratch the
// writer appends frames into and a read buffer frames are slurped into
// before decoding. One frameIO per connection direction; not safe for
// concurrent use (callers serialize on the connection's write lock or the
// single demux goroutine).
type frameIO struct {
	enc  []byte
	read []byte
	dec  codec.Dec
}

// readFrame reads one frame into the reusable buffer, points the decoder at
// it, and returns the request ID; the message follows in f.dec.
func (f *frameIO) readFrame(r *bufio.Reader) (uint64, error) {
	buf, err := codec.ReadFrame(r, f.read, maxFrame)
	f.read = buf
	if err != nil {
		return 0, err
	}
	f.dec.Reset(buf)
	return f.dec.Uvarint(), nil
}

// readRequest reads and decodes one request frame (server side).
func (f *frameIO) readRequest(r *bufio.Reader) (uint64, request, error) {
	var req request
	id, err := f.readFrame(r)
	if err == nil {
		err = decodeRequest(&f.dec, &req)
	}
	if err != nil {
		return 0, request{}, err
	}
	return id, req, nil
}

// readResponse reads and decodes one response frame into resp (client demux
// side). Both the frame buffer and resp are reusable across calls:
// decodeResponse assigns every field, so stale state never leaks between
// frames, and what the decoded response owns (strings, slices, maps) is
// freshly allocated and safe to hand off by value.
func (f *frameIO) readResponse(r *bufio.Reader, resp *response) (uint64, error) {
	id, err := f.readFrame(r)
	if err == nil {
		err = decodeResponse(&f.dec, resp)
	}
	if err != nil {
		return 0, err
	}
	return id, nil
}

// writeRequest encodes and frames one request into w (client side; caller
// holds the connection write lock).
func (f *frameIO) writeRequest(w *bufio.Writer, id uint64, req *request) error {
	f.enc = appendRequest(binary.AppendUvarint(f.enc[:0], id), req)
	return codec.WriteFrame(w, f.enc)
}

// writeResponse encodes and frames one response into w (server side; caller
// holds the connection write lock).
func (f *frameIO) writeResponse(w *bufio.Writer, id uint64, resp *response) error {
	f.enc = appendResponse(binary.AppendUvarint(f.enc[:0], id), resp)
	return codec.WriteFrame(w, f.enc)
}

// --- benchmark access ---

// CodecBench exposes the v2 binary codec and the JSON v1 codec to the
// repository-root benchmark suite (BenchmarkWireCodec), which gates the
// serialization-layer claim: the binary codec must stay a small fraction of
// the JSON codec's allocations and time for a submit-shaped round trip. The
// payload mirrors BenchmarkSubmitTask's.
type CodecBench struct {
	f    frameIO
	req  request
	resp response
	json []byte
}

// NewCodecBench builds the harness around one representative submit
// request/response pair.
func NewCodecBench() *CodecBench {
	return &CodecBench{
		req: request{
			Op: "submit", Trace: "0123456789abcdef", ExpID: "bench",
			WorkType: 1, Payload: `{"x": [1.0, 2.0, 3.0, 4.0]}`,
			DedupKey: "cc-0011223344556677-42",
		},
		resp: response{OK: true, TaskID: 123456, Token: 987654},
	}
}

// RoundTripV2 encodes and decodes the request and response pair through the
// v2 binary codec, reusing the harness scratch like a live connection would.
func (cb *CodecBench) RoundTripV2() error {
	cb.f.enc = appendRequest(cb.f.enc[:0], &cb.req)
	var req request
	cb.f.dec.Reset(cb.f.enc)
	if err := decodeRequest(&cb.f.dec, &req); err != nil {
		return err
	}
	cb.f.enc = appendResponse(cb.f.enc[:0], &cb.resp)
	var resp response
	cb.f.dec.Reset(cb.f.enc)
	if err := decodeResponse(&cb.f.dec, &resp); err != nil {
		return err
	}
	if req.Op != cb.req.Op || resp.TaskID != cb.resp.TaskID {
		return errors.New("codec bench: round trip mismatch")
	}
	return nil
}

// RoundTripJSON is the same round trip through the v1 JSON codec, with the
// marshal buffer reused the way the old connection encoders reused theirs.
func (cb *CodecBench) RoundTripJSON() error {
	var err error
	cb.json, err = json.Marshal(&cb.req)
	if err != nil {
		return err
	}
	var req request
	if err := json.Unmarshal(cb.json, &req); err != nil {
		return err
	}
	cb.json, err = json.Marshal(&cb.resp)
	if err != nil {
		return err
	}
	var resp response
	if err := json.Unmarshal(cb.json, &resp); err != nil {
		return err
	}
	if req.Op != cb.req.Op || resp.TaskID != cb.resp.TaskID {
		return errors.New("codec bench: round trip mismatch")
	}
	return nil
}
