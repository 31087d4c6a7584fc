package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"rramft/internal/obs"
)

// MaxRequestBytes caps one request line of the wire protocol. Longer lines
// are rejected before JSON parsing, bounding per-request decode work.
const MaxRequestBytes = 1 << 20

// Decode errors. They wrap into the error returned by DecodeRequest and
// are matchable with errors.Is.
var (
	ErrRequestTooLarge = errors.New("serve: request line exceeds size limit")
	ErrBadShape        = errors.New("serve: request feature count does not match the model")
	ErrNotFinite       = errors.New("serve: request contains non-finite values")
)

// RequestError reports a request line that is valid JSON but carries an
// unusable payload: a wrong feature count, a non-finite value or a value of
// the wrong type. ID is the id decoded from the line, so the error response
// can echo it; the error text is Err's.
type RequestError struct {
	ID  string
	Err error
}

// Error returns the wrapped error's text unchanged.
func (e *RequestError) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *RequestError) Unwrap() error { return e.Err }

// Request is one classification query: a single sample's feature vector,
// plus an opaque client ID echoed on the response (responses may complete
// out of submission order across connections and batches).
type Request struct {
	ID string
	X  []float64
}

// Response answers one Request. Epoch is the repair epoch the answering
// batch executed against; LatencyNs measures Submit to completion on the
// engine's clock. Err is set instead of Class on failure.
type Response struct {
	ID        string
	Class     int
	Epoch     int64
	LatencyNs int64
	Err       error
}

// wireRequest is the line-delimited JSON request form:
//
//	{"id":"req-1","x":[0.1,0.2,...]}
type wireRequest struct {
	ID string    `json:"id,omitempty"`
	X  []float64 `json:"x"`
}

// wireResponse is the line-delimited JSON response form. Class is -1 on
// error responses.
type wireResponse struct {
	ID        string `json:"id,omitempty"`
	Class     int    `json:"class"`
	Epoch     int64  `json:"epoch,omitempty"`
	LatencyNs int64  `json:"latency_ns,omitempty"`
	Error     string `json:"error,omitempty"`
}

// DecodeRequest parses one protocol line into a Request for a model taking
// inSize features. It rejects oversized lines, malformed JSON, wrong
// feature counts and non-finite payloads (JSON cannot carry NaN/Inf
// literally, but out-of-range constants and null elements must not reach
// the compute path as surprises either). A line that is valid JSON but
// carries an unusable payload is rejected with a *RequestError holding the
// line's id.
//
// Plain lines — the shape every JSON encoder emits for this protocol — are
// scanned by hand; any other line goes to encoding/json, which alone decides
// it. Both give the same result for every line (DESIGN.md §12).
func DecodeRequest(line []byte, inSize int) (*Request, error) {
	req, err := decodeRequest(line, inSize)
	if err != nil && obs.MetricsEnabled() {
		cDecodeErrors.Inc()
	}
	return req, err
}

func decodeRequest(line []byte, inSize int) (*Request, error) {
	if len(line) > MaxRequestBytes {
		return nil, fmt.Errorf("%w (%d > %d bytes)", ErrRequestTooLarge, len(line), MaxRequestBytes)
	}
	if req := decodePlain(line, inSize); req != nil {
		return req, nil
	}
	if obs.MetricsEnabled() {
		cDecodeFallbacks.Inc()
	}
	var wr wireRequest
	if err := json.Unmarshal(line, &wr); err != nil {
		err = fmt.Errorf("serve: bad request json: %w", err)
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) {
			return nil, &RequestError{ID: wr.ID, Err: err}
		}
		return nil, err
	}
	if len(wr.X) != inSize {
		return nil, &RequestError{ID: wr.ID, Err: fmt.Errorf("%w: got %d features, model takes %d", ErrBadShape, len(wr.X), inSize)}
	}
	for _, v := range wr.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, &RequestError{ID: wr.ID, Err: ErrNotFinite}
		}
	}
	return &Request{ID: wr.ID, X: wr.X}, nil
}

// decodePlain decodes a plain request line, or returns nil for any other
// line. A plain line is one JSON object with exactly one "x" member and at
// most one "id" member, in either order, spelt exactly so; the id is a
// string of printable ASCII without escapes, and x holds exactly inSize JSON
// numbers that strconv.ParseFloat takes without error. JSON whitespace may
// surround any token. encoding/json accepts every such line with the same
// id and bit-identical values: it parses numbers with the same ParseFloat
// call, and a JSON number ParseFloat takes without error is finite.
func decodePlain(line []byte, inSize int) *Request {
	var (
		id         string
		x          []float64
		haveID, ok bool
	)
	i := skipSpace(line, 0)
	if i == len(line) || line[i] != '{' {
		return nil
	}
	for {
		i = skipSpace(line, i+1)
		switch {
		case x == nil && hasToken(line, i, `"x"`):
			if x, i, ok = scanNumbers(line, skipColon(line, i+len(`"x"`)), inSize); !ok {
				return nil
			}
		case !haveID && hasToken(line, i, `"id"`):
			if id, i, ok = scanID(line, skipColon(line, i+len(`"id"`))); !ok {
				return nil
			}
			haveID = true
		default:
			return nil
		}
		i = skipSpace(line, i)
		if i == len(line) {
			return nil
		}
		if line[i] == '}' {
			break
		}
		if line[i] != ',' {
			return nil
		}
	}
	if x == nil || skipSpace(line, i+1) != len(line) {
		return nil
	}
	return &Request{ID: id, X: x}
}

// scanID scans a JSON string of bytes 0x20-0x7E without '"' or '\\'
// starting at line[i], returning it and the index just past its closing
// quote.
func scanID(line []byte, i int) (id string, next int, ok bool) {
	if i == len(line) || line[i] != '"' {
		return "", 0, false
	}
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return string(line[i+1 : j]), j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return "", 0, false
		}
	}
	return "", 0, false
}

// scanNumbers scans a JSON array of exactly n numbers starting at line[i],
// returning the values and the index just past the closing bracket. It
// fails (ok false) on any other array, an empty one included, and on a
// number ParseFloat rejects as out of range.
func scanNumbers(line []byte, i, n int) (x []float64, next int, ok bool) {
	if n <= 0 || i == len(line) || line[i] != '[' {
		return nil, 0, false
	}
	x = make([]float64, n)
	i = skipSpace(line, i+1)
	for k := range x {
		if k > 0 {
			if i == len(line) || line[i] != ',' {
				return nil, 0, false
			}
			i = skipSpace(line, i+1)
		}
		// ParseFloat alone also takes Inf, NaN, hex floats, underscores,
		// leading zeros and a leading '+', none of which are JSON.
		j := numberEnd(line, i)
		if j < 0 {
			return nil, 0, false
		}
		v, err := strconv.ParseFloat(string(line[i:j]), 64)
		if err != nil {
			return nil, 0, false
		}
		x[k] = v
		i = skipSpace(line, j)
	}
	if i == len(line) || line[i] != ']' {
		return nil, 0, false
	}
	return x, i + 1, true
}

// numberEnd returns the end of the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? starting at b[i], or -1 if
// none starts there.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// skipColon skips whitespace, one ':' and whitespace from b[i], returning
// the index of the value that follows, or len(b), where no value starts,
// if there is no colon.
func skipColon(b []byte, i int) int {
	if i = skipSpace(b, i); i == len(b) || b[i] != ':' {
		return len(b)
	}
	return skipSpace(b, i+1)
}

func hasToken(b []byte, i int, tok string) bool {
	return len(b)-i >= len(tok) && string(b[i:i+len(tok)]) == tok
}

// maxPlainResponse bounds a plain response line's length, trailing newline
// included, apart from its id and error text: every member present, each
// integer at its longest.
const maxPlainResponse = len(`{"id":"","class":,"epoch":,"latency_ns":,"error":""}`) + 3*len("-9223372036854775808") + 1

// EncodeResponse renders one response as a JSON line (without the trailing
// newline, for which the returned slice has spare capacity). Error
// responses carry class -1 and the error text. The bytes are exactly what
// json.Marshal writes for the response; strings it would escape send the
// whole response through it.
func EncodeResponse(r Response) []byte {
	wr := wireResponse{ID: r.ID, Class: r.Class, Epoch: r.Epoch, LatencyNs: r.LatencyNs}
	if r.Err != nil {
		wr.Class = -1
		wr.Error = r.Err.Error()
	}
	if !plainString(wr.ID) || !plainString(wr.Error) {
		b, err := json.Marshal(wr)
		if err != nil {
			// wireResponse contains only marshalable fields; this is dead in
			// practice but must not take a serving goroutine down.
			return []byte(`{"class":-1,"error":"serve: response encoding failed"}`)
		}
		return b
	}
	b := make([]byte, 0, len(wr.ID)+len(wr.Error)+maxPlainResponse)
	b = append(b, '{')
	if wr.ID != "" {
		b = append(b, `"id":"`...)
		b = append(b, wr.ID...)
		b = append(b, `",`...)
	}
	b = append(b, `"class":`...)
	b = strconv.AppendInt(b, int64(wr.Class), 10)
	if wr.Epoch != 0 {
		b = append(b, `,"epoch":`...)
		b = strconv.AppendInt(b, wr.Epoch, 10)
	}
	if wr.LatencyNs != 0 {
		b = append(b, `,"latency_ns":`...)
		b = strconv.AppendInt(b, wr.LatencyNs, 10)
	}
	if wr.Error != "" {
		b = append(b, `,"error":"`...)
		b = append(b, wr.Error...)
		b = append(b, '"')
	}
	return append(b, '}')
}

// plainString reports whether json.Marshal writes s verbatim between its
// quotes: printable ASCII apart from the quote, the backslash and the HTML
// characters it escapes.
func plainString(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}
