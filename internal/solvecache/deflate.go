package solvecache

import (
	"bytes"
	"compress/flate"
	"io"
	"sync"
)

// deflateCodec compresses the placement tier's payloads. A placement result
// is tens of KB of repetitive JSON that deflates about twelvefold, and a
// long-lived process keeps thousands of them, most never hit again.
//
// The codec keeps one flate writer and one flate reader with their output
// buffers, reused through Reset, each behind its own mutex: a fresh writer
// costs more than deflating a placement payload with a reused one, and a
// fresh reader allocates ~45 KB per hit. A deflate takes ~0.1 ms and runs
// once per placement run, so the lock is never contended for long.
type deflateCodec struct {
	wmu  sync.Mutex
	w    *flate.Writer
	wbuf bytes.Buffer

	rmu  sync.Mutex
	r    io.ReadCloser // a flate reader; it implements flate.Resetter
	rbuf bytes.Buffer
}

// deflate returns b compressed at flate.BestSpeed, in a fresh slice.
func (z *deflateCodec) deflate(b []byte) []byte {
	z.wmu.Lock()
	defer z.wmu.Unlock()
	z.wbuf.Reset()
	if z.w == nil {
		z.w, _ = flate.NewWriter(&z.wbuf, flate.BestSpeed) // fails only on a bad level
	} else {
		z.w.Reset(&z.wbuf)
	}
	// Writes into a bytes.Buffer cannot fail.
	_, _ = z.w.Write(b)
	_ = z.w.Close()
	return bytes.Clone(z.wbuf.Bytes())
}

// inflate returns the bytes the deflate stream c decompresses to, in a fresh
// slice, or nil when c is not one complete stream or decompresses past
// maxStorePayload bytes (a peer's payload may be a deflate bomb;
// PutPlacement stores nothing larger).
func (z *deflateCodec) inflate(c []byte) []byte {
	z.rmu.Lock()
	defer z.rmu.Unlock()
	src := bytes.NewReader(c)
	if z.r == nil {
		z.r = flate.NewReader(src)
	} else if z.r.(flate.Resetter).Reset(src, nil) != nil {
		return nil
	}
	z.rbuf.Reset()
	if _, err := z.rbuf.ReadFrom(io.LimitReader(z.r, maxStorePayload+1)); err != nil || z.rbuf.Len() > maxStorePayload {
		return nil
	}
	return bytes.Clone(z.rbuf.Bytes())
}
