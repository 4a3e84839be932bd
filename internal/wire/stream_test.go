package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// TestStreamRoundTrip drives the stream envelope with seeded random
// frames and asserts decode(encode(x)) == x through both the whole-body
// decoder and the incremental StreamReader — the two must agree.
func TestStreamRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for i := 0; i < 2000; i++ {
		var buf []byte
		want := make([]*Frame, 0, 4)
		for _, pick := range []int{r.Intn(4), r.Intn(4)} {
			switch pick {
			case 0:
				req := randRequest(r)
				id := r.Uint64()
				buf = AppendStreamRequest(buf, id, &req)
				want = append(want, &Frame{Type: TypeStreamRequest, StreamID: id, Req: &req})
			case 1:
				resp := randResponse(r)
				id := r.Uint64()
				buf = AppendStreamResponse(buf, id, &resp)
				want = append(want, &Frame{Type: TypeStreamResponse, StreamID: id, Resp: &resp})
			case 2:
				n := r.Uint64()
				buf = AppendCredit(buf, n)
				want = append(want, &Frame{Type: TypeCredit, Credit: n})
			case 3:
				g := &Goaway{LastStreamID: r.Uint64(), Reason: randString(r, 32)}
				buf = AppendGoaway(buf, g)
				want = append(want, &Frame{Type: TypeGoaway, Away: g})
			}
		}
		got, err := DecodeAll(buf)
		if err != nil {
			t.Fatalf("iter %d: DecodeAll: %v", i, err)
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: decoded %d frames, want %d", i, len(got), len(want))
		}
		for j := range got {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("iter %d frame %d:\n got %+v\nwant %+v", i, j, got[j], want[j])
			}
		}

		// The incremental reader must produce the identical frames.
		sr := NewStreamReader(bytes.NewReader(buf))
		for j := range want {
			f, err := sr.Next()
			if err != nil {
				t.Fatalf("iter %d: StreamReader frame %d: %v", i, j, err)
			}
			if !reflect.DeepEqual(f, want[j]) {
				t.Fatalf("iter %d stream frame %d:\n got %+v\nwant %+v", i, j, f, want[j])
			}
		}
		if _, err := sr.Next(); err != io.EOF {
			t.Fatalf("iter %d: want io.EOF after last frame, got %v", i, err)
		}
	}
}

// TestStreamReaderTruncation: a connection dying between frames is a
// clean io.EOF; dying mid-frame is io.ErrUnexpectedEOF.
func TestStreamReaderTruncation(t *testing.T) {
	req := Request{Region: "gemm", SlotForm: true, KeyHash: 7, Values: []int64{1100}}
	full := AppendStreamRequest(nil, 3, &req)

	sr := NewStreamReader(bytes.NewReader(nil))
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	for cut := 1; cut < len(full); cut++ {
		sr := NewStreamReader(bytes.NewReader(full[:cut]))
		if _, err := sr.Next(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestStreamReaderRejects: bad magic and version skew fail loudly with
// the tagged sentinel errors so the client can downgrade.
func TestStreamReaderRejects(t *testing.T) {
	good := AppendCredit(nil, 64)

	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := NewStreamReader(bytes.NewReader(bad)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("bad magic: want ErrMalformed, got %v", err)
	}

	skew := append([]byte(nil), good...)
	skew[2] = Version + 1
	if _, err := NewStreamReader(bytes.NewReader(skew)).Next(); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: want ErrVersion, got %v", err)
	}

	huge := append([]byte(nil), good...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, err := NewStreamReader(bytes.NewReader(huge)).Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized payload: want ErrMalformed, got %v", err)
	}
}

// TestStreamReaderNoAlias: frames must stay valid after later Next
// calls even though the reader reuses its payload buffer.
func TestStreamReaderNoAlias(t *testing.T) {
	var buf []byte
	buf = AppendStreamRequest(buf, 1, &Request{Region: "first", Names: []string{"n"}, Values: []int64{1}})
	buf = AppendStreamRequest(buf, 2, &Request{Region: "second", Names: []string{"m"}, Values: []int64{2}})
	sr := NewStreamReader(bytes.NewReader(buf))
	f1, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	if f1.Req.Region != "first" || f1.Req.Names[0] != "n" {
		t.Fatalf("first frame mutated by second read: %+v", f1.Req)
	}
}

// TestStreamReaderInterning drives one long-lived StreamReader through
// thousands of frames: every frame must equal DecodeFrame of the same
// bytes, the intern table must stay within its bounds (at most
// maxInterned strings, none longer than maxInternLen) however many
// distinct strings flow past, and repeated short strings must come
// back shared rather than freshly allocated.
func TestStreamReaderInterning(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	hot := Response{
		Region: "gemm", Verdict: "gpu/base", Kind: "gpu", Policy: "model-guided",
		Provenance: "analytical",
		Candidates: []Candidate{{Target: "gpu/base", Kind: "gpu"}, {Target: "cpu/base", Kind: "cpu"}},
	}
	var buf []byte
	for i := 0; i < 4000; i++ {
		id := uint64(i + 1)
		switch i % 5 {
		case 0, 1:
			buf = AppendStreamResponse(buf, id, &hot)
		case 2:
			req := randRequest(r)
			buf = AppendStreamRequest(buf, id, &req)
		case 3:
			resp := randResponse(r)
			buf = AppendStreamResponse(buf, id, &resp)
		case 4:
			buf = AppendGoaway(buf, &Goaway{LastStreamID: id, Reason: randString(r, 200)})
		}
	}

	sr := NewStreamReader(bytes.NewReader(buf))
	rest := buf
	var first *Frame
	for n := 0; ; n++ {
		got, err := sr.Next()
		if err == io.EOF {
			if len(rest) != 0 {
				t.Fatalf("reader stopped with %d bytes left", len(rest))
			}
			break
		}
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		want, used, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: DecodeFrame: %v", n, err)
		}
		rest = rest[used:]
		if !framesEqual(got, want) {
			t.Fatalf("frame %d:\n stream %+v\n  whole %+v", n, got, want)
		}
		if len(sr.strs) > maxInterned {
			t.Fatalf("frame %d: intern table holds %d strings, cap %d", n, len(sr.strs), maxInterned)
		}
		if n == 0 {
			first = got
		} else if n%5 == 0 {
			// A repeat of the hot response: its strings are the ones
			// the first decode interned, not fresh copies.
			if unsafe.StringData(got.Resp.Verdict) != unsafe.StringData(first.Resp.Verdict) ||
				unsafe.StringData(got.Resp.Candidates[1].Target) != unsafe.StringData(first.Resp.Candidates[1].Target) {
				t.Fatalf("frame %d: repeated strings were not interned", n)
			}
		}
	}
	if len(sr.strs) != maxInterned {
		t.Fatalf("intern table holds %d strings after thousands of distinct ones, want the cap %d",
			len(sr.strs), maxInterned)
	}
	for k, v := range sr.strs {
		if len(k) > maxInternLen || k != v {
			t.Fatalf("intern table retains %d-byte string %q -> %q", len(k), k, v)
		}
	}
}
