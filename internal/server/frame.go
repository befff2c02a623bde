// Package server is the TCP front-end over the composite-object store:
// one listener, one session per connection, each session an independent
// sexpr.Interp whose (begin)/(commit) transactions and (snapshot begin)
// reads map straight onto txn.Manager. See DESIGN.md §14.
//
// Wire protocol: both directions carry length-prefixed frames — a 4-byte
// big-endian payload length followed by that many bytes of UTF-8. A
// request payload is an s-expression program; the whole program is one
// unit of evaluation and gets exactly one reply frame. A reply payload's
// first byte is a status tag:
//
//	'+' — success; the rest is the rendered value of the last expression
//	'-' — failure; the rest is "<code> <message>" where <code> is a
//	      machine-readable word (sexpr.CodeDeadlock, CodeBusy, …)
//
// The frame layer enforces a maximum payload length on receive and
// never trusts the prefix for allocation: the buffer grows with the bytes
// that actually arrive, so a hostile peer cannot balloon memory with a
// 4-byte header.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// DefaultMaxFrame bounds request payloads unless Config overrides it.
const DefaultMaxFrame = 4 << 20

// frameHeader is the length prefix size.
const frameHeader = 4

// ErrFrameTooLarge reports a length prefix above the receive limit. The
// stream cannot be resynchronized after it; the connection must close.
var ErrFrameTooLarge = errors.New("server: frame exceeds size limit")

// Reply status tags.
const (
	statusOK  = '+'
	statusErr = '-'
)

// Error codes minted by the server itself (evaluation errors carry
// sexpr.ErrorCode codes instead).
const (
	// CodeBusy rejects a connection over the admission limit.
	CodeBusy = "busy"
	// CodeShutdown rejects a connection while the server drains.
	CodeShutdown = "shutdown"
	// CodeProto reports a malformed frame (e.g. oversized length prefix).
	CodeProto = "proto"
)

// RemoteError is a '-' reply decoded on the receiving side: the failure
// of the remote evaluation (or admission), carried as a code + message.
type RemoteError struct {
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return "remote: " + e.Code + ": " + e.Msg }

// IsRemote reports whether err is a RemoteError with the given code.
func IsRemote(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}

// WriteFrame writes one length-prefixed frame in a single Write, so an
// unbuffered connection sends header and payload together.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, 0, frameHeader+len(payload))
	_, err := w.Write(endFrame(append(startFrame(frame), payload...)))
	return err
}

// startFrame appends a frame's length prefix to dst; the payload is
// appended after it, and endFrame fills the prefix in.
func startFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// endFrame sets the length prefix of frame, which startFrame began at
// frame[0], to the bytes appended since, and returns frame.
func endFrame(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	return frame
}

// frameChunk is the least a readFrame buffer grows by when it is full.
const frameChunk = 4 << 10

// ReadFrame reads one frame into a fresh buffer; see readFrame.
func ReadFrame(r io.Reader, max uint32) ([]byte, error) {
	return readFrame(r, max, nil)
}

// readFrame reads one frame into buf's storage and returns the payload,
// rejecting a length prefix above limit before anything is allocated for
// it. The payload fills buf's capacity first; each time the buffer is
// full it grows by the bytes read so far, and by at least frameChunk, but
// never past the prefix's length. A prefix the stream cannot back
// (truncated or hostile) thus allocates at most 2*frameChunk plus four
// times the bytes that arrived, never the length it claims. A short body
// returns io.ErrUnexpectedEOF.
func readFrame(r io.Reader, limit uint32, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) < frameHeader {
		buf = make([]byte, 0, frameHeader)
	}
	if _, err := io.ReadFull(r, buf[:frameHeader]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(buf[:frameHeader])
	if n > limit {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, limit)
	}
	for len(buf) < int(n) {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(int(n), len(buf)+max(len(buf), frameChunk)))
			copy(grown, buf)
			buf = grown
		}
		m, err := io.ReadFull(r, buf[len(buf):min(int(n), cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// appendError appends a '-' reply payload to dst.
func appendError(dst []byte, code, msg string) []byte {
	dst = append(dst, statusErr)
	dst = append(dst, code...)
	dst = append(dst, ' ')
	return append(dst, msg...)
}

// DecodeReply splits a reply payload into its result text or RemoteError.
func DecodeReply(payload []byte) (string, error) {
	if len(payload) == 0 {
		return "", errors.New("server: empty reply frame")
	}
	switch payload[0] {
	case statusOK:
		return string(payload[1:]), nil
	case statusErr:
		code, msg, _ := strings.Cut(string(payload[1:]), " ")
		return "", &RemoteError{Code: code, Msg: msg}
	default:
		return "", fmt.Errorf("server: bad reply status %q", payload[0])
	}
}
