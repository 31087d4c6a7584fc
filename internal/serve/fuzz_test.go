package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzServeRequest proves no protocol line can panic the request decoder —
// malformed JSON, wrong shapes, non-finite or out-of-range numbers and
// oversized payloads must all come back as errors — and that every request
// it accepts is servable (right arity, finite values). It is also the
// differential proof for the hand-written codec: on every line DecodeRequest
// must agree with refDecodeRequest (the encoding/json decoder it replaces
// for plain lines) on accept or reject, error text, sentinel errors, id and
// the bits of every value, and EncodeResponse must write the bytes
// refEncodeResponse writes for the response built from the outcome.
func FuzzServeRequest(f *testing.F) {
	seeds := []string{
		`{"id":"a","x":[0.1,0.2,0.3,0.4]}`,
		`{"x":[0,0,0,0]}`,
		`{"x":[1,2]}`,
		`{"x":[]}`,
		`{"x":null}`,
		`{}`,
		``,
		`not json`,
		`{"id":"big","x":[1e308,-1e308,0,0]}`,
		`{"id":"overflow","x":[1e400,0,0,0]}`,
		`{"x":["a","b","c","d"]}`,
		`{"x":[null,null,null,null]}`,
		`{"id":"dup","x":[1,1,1,1],"x":[2,2,2,2]}`,
		`[0.1,0.2,0.3,0.4]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(bytes.Repeat([]byte("9"), MaxRequestBytes+1))

	const inSize = 4
	sentinels := []error{ErrRequestTooLarge, ErrBadShape, ErrNotFinite}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, inSize)
		want, wantErr := refDecodeRequest(data, inSize)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeRequest error %v, reference error %v", err, wantErr)
		}
		// Vary the response's integers, zero (omitted on the wire) included.
		resp := Response{Class: len(data) % 7, Epoch: int64(len(data) % 3), LatencyNs: int64(len(data)%5) * 999_983}
		if err != nil {
			if req != nil {
				t.Fatalf("decode returned both a request and error %v", err)
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference error %q", err, wantErr)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != errors.Is(wantErr, s) {
					t.Fatalf("errors.Is(%v, %v) differs from the reference", err, s)
				}
			}
			// A line that is valid JSON is rejected for its payload, with
			// the id encoding/json reads from it; any other line has no id.
			var re *RequestError
			if isPayload := errors.As(err, &re); isPayload != (len(data) <= MaxRequestBytes && json.Valid(data)) {
				t.Fatalf("RequestError %v for a line whose JSON validity is %v", isPayload, json.Valid(data))
			}
			if re != nil {
				var wr wireRequest
				_ = json.Unmarshal(data, &wr) // fails as err says; wr.ID is still filled
				if re.ID != wr.ID {
					t.Fatalf("RequestError id %q, encoding/json reads %q", re.ID, wr.ID)
				}
				resp.ID = re.ID
			}
			resp.Err = err
		} else {
			if req.ID != want.ID || len(req.X) != len(want.X) {
				t.Fatalf("decoded id %q with %d features, reference %q with %d", req.ID, len(req.X), want.ID, len(want.X))
			}
			if len(req.X) != inSize {
				t.Fatalf("accepted request with %d features, want %d", len(req.X), inSize)
			}
			for i, v := range req.X {
				if math.Float64bits(v) != math.Float64bits(want.X[i]) {
					t.Fatalf("feature %d = %v (%#x), reference %v (%#x)", i, v, math.Float64bits(v), want.X[i], math.Float64bits(want.X[i]))
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted non-finite value %v at %d", v, i)
				}
			}
			resp.ID = req.ID
		}
		line := EncodeResponse(resp)
		if wantLine := refEncodeResponse(resp); !bytes.Equal(line, wantLine) {
			t.Fatalf("EncodeResponse wrote %q, reference %q", line, wantLine)
		}
		if !json.Valid(line) || bytes.ContainsRune(line, '\n') {
			t.Fatalf("response did not encode to one valid JSON line: %q", line)
		}
	})
}

// refDecodeRequest is the encoding/json decoder DecodeRequest used before
// plain lines got a scanner, kept verbatim as the differential oracle.
func refDecodeRequest(line []byte, inSize int) (*Request, error) {
	if len(line) > MaxRequestBytes {
		return nil, fmt.Errorf("%w (%d > %d bytes)", ErrRequestTooLarge, len(line), MaxRequestBytes)
	}
	var wr wireRequest
	if err := json.Unmarshal(line, &wr); err != nil {
		return nil, fmt.Errorf("serve: bad request json: %w", err)
	}
	if len(wr.X) != inSize {
		return nil, fmt.Errorf("%w: got %d features, model takes %d", ErrBadShape, len(wr.X), inSize)
	}
	for _, v := range wr.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNotFinite
		}
	}
	return &Request{ID: wr.ID, X: wr.X}, nil
}

// refEncodeResponse is the json.Marshal encoder EncodeResponse used before
// it appended plain responses directly, kept verbatim as the differential
// oracle.
func refEncodeResponse(r Response) []byte {
	wr := wireResponse{ID: r.ID, Class: r.Class, Epoch: r.Epoch, LatencyNs: r.LatencyNs}
	if r.Err != nil {
		wr.Class = -1
		wr.Error = r.Err.Error()
	}
	b, err := json.Marshal(wr)
	if err != nil {
		// wireResponse contains only marshalable fields; this is dead in
		// practice but must not take a serving goroutine down.
		return []byte(`{"class":-1,"error":"serve: response encoding failed"}`)
	}
	return b
}

// TestDecodeRequest pins the decoder's rejection taxonomy.
func TestDecodeRequest(t *testing.T) {
	const inSize = 3
	cases := []struct {
		name    string
		line    string
		wantErr error // nil = accept
	}{
		{"valid", `{"id":"r1","x":[1,2,3]}`, nil},
		{"valid without id", `{"x":[0.5,-0.5,0]}`, nil},
		{"too few features", `{"x":[1,2]}`, ErrBadShape},
		{"too many features", `{"x":[1,2,3,4]}`, ErrBadShape},
		{"null payload", `{"x":null}`, ErrBadShape},
		{"empty object", `{}`, ErrBadShape},
		{"malformed json", `{"x":[1,2,3`, nil /* any error */},
		{"oversized line", strings.Repeat("9", MaxRequestBytes+1), ErrRequestTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeRequest([]byte(tc.line), inSize)
			if tc.wantErr == nil && tc.name != "malformed json" {
				if err != nil {
					t.Fatalf("DecodeRequest: %v", err)
				}
				if len(req.X) != inSize {
					t.Fatalf("decoded %d features", len(req.X))
				}
				return
			}
			if err == nil {
				t.Fatal("decoder accepted a bad request")
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("error = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestEncodeResponseError pins error-response encoding: class -1 plus the
// error text, still one JSON line.
func TestEncodeResponseError(t *testing.T) {
	line := EncodeResponse(Response{ID: "r9", Err: ErrDeadlineExceeded})
	var wr struct {
		ID    string `json:"id"`
		Class int    `json:"class"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(line, &wr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if wr.ID != "r9" || wr.Class != -1 || wr.Error == "" {
		t.Errorf("error response = %+v", wr)
	}
}
