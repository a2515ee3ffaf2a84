package service

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// The golden frames below pin the v2 wire bytes. The codec may be refactored
// freely, but a change that alters any of these bytes breaks every deployed
// client and server that speaks v2: update a constant only together with a
// wireVersion bump.

const goldenRequestFrame = "66ac02067375626d6974103031323334353637383961626364656601ac020906" +
	"7374726f6e6702646b0201610262630365787004077b2278223a317d01010174" +
	"0f02808080808040034204706f6f6cb817026f6b0305000e0202703100067175" +
	"65756564808040"

const goldenResponseFrame = "9c0101010165010186a43c80890f020a0b011203657870020772756e6e696e67" +
	"0170017202706c038080d0e2c6bfce972f0200011403726573011608636f6d70" +
	"6c657465011807060106717565756564040103746167047465787408666f6c6c" +
	"6f776572026e320e3132372e302e302e313a373635340484070203613a310362" +
	"3a3201036c6167000000000000f83f0101014d1202067175657565640601"

// goldenRequest sets every request field, with negative values wherever a
// field is signed so the zigzag encoding is pinned too.
func goldenRequest() request {
	return request{
		Op: "submit", Trace: "0123456789abcdef", Fwd: true, Token: 300, WaitMS: -5,
		Level: "strong", DedupKey: "dk", DedupKeys: []string{"a", "bc"},
		ExpID: "exp", WorkType: 2, Payload: `{"x":1}`, Priority: -1,
		Tags: []string{"t"}, TaskID: -8, TaskIDs: []int64{1 << 40, -2},
		N: 33, Pool: "pool", TimeMS: 1500, Result: "ok",
		Priorities: []int{-3, 0, 7}, Payloads: []string{"p1", ""},
		Watch: "queued", SubID: 1 << 20,
	}
}

// goldenResponse sets every response field. Maps hold one entry each so the
// encoding does not depend on map iteration order.
func goldenResponse() response {
	return response{
		OK: true, Error: "e", Timeout: true, Transient: true, Token: 987654,
		TaskID: 123456, TaskIDs: []int64{5, -6},
		Tasks: []wireTask{{
			ID: 9, ExpID: "exp", WorkType: 1, Status: "running", Payload: "p",
			Result: "r", Pool: "pl", Priority: -2, Created: 1700000000000000000,
			Started: 1, Stopped: 0,
		}},
		Results:    []wireResult{{ID: 10, Result: "res"}},
		StatusMap:  map[int64]string{11: "complete"},
		PrioMap:    map[int64]int{12: -4},
		Count:      3,
		CountsMap:  map[string]int{"queued": 2},
		TagList:    []string{"tag"},
		ResultText: "text",
		Role:       "follower", NodeID: "n2", LeaderSvc: "127.0.0.1:7654",
		Term: 4, Applied: 900, PeerSvcs: []string{"a:1", "b:2"},
		Stats:      map[string]float64{"lag": 1.5},
		Overloaded: true, Done: true,
		Events: []wireEvent{{Token: 77, TaskID: 9, WorkType: 1, Status: "queued", Depth: 3, Resync: true}},
	}
}

// TestWireGoldenBytes encodes one request frame and one response frame and
// compares them byte for byte with the pinned encodings, then decodes the
// pinned bytes back to the original values.
func TestWireGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	var w frameIO
	req := goldenRequest()
	if err := w.writeRequest(bw, 300, &req); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != goldenRequestFrame {
		t.Errorf("request frame bytes changed:\n got %s\nwant %s", got, goldenRequestFrame)
	}
	raw, _ := hex.DecodeString(goldenRequestFrame)
	var r frameIO
	id, gotReq, err := r.readRequest(bufio.NewReader(bytes.NewReader(raw)))
	if err != nil || id != 300 || !reflect.DeepEqual(gotReq, req) {
		t.Errorf("golden request decoded to id %d %+v (%v), want %+v", id, gotReq, err, req)
	}

	buf.Reset()
	resp := goldenResponse()
	if err := w.writeResponse(bw, 1, &resp); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if got := hex.EncodeToString(buf.Bytes()); got != goldenResponseFrame {
		t.Errorf("response frame bytes changed:\n got %s\nwant %s", got, goldenResponseFrame)
	}
	raw, _ = hex.DecodeString(goldenResponseFrame)
	var gotResp response
	id, err = r.readResponse(bufio.NewReader(bytes.NewReader(raw)), &gotResp)
	if err != nil || id != 1 || !reflect.DeepEqual(gotResp, resp) {
		t.Errorf("golden response decoded to id %d %+v (%v), want %+v", id, gotResp, err, resp)
	}
}
