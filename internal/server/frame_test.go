package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range []string{"", "x", "(make Widget :Tag 1)", strings.Repeat("q", 100_000)} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, []byte(payload)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != payload {
			t.Fatalf("round trip: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	buf.Write(hdr[:])
	buf.WriteString("tiny")
	if _, err := ReadFrame(&buf, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	// Header promises 100 bytes, stream has 3: the decoder must fail with
	// unexpected EOF, not block or fabricate data.
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.WriteString("abc")
	if _, err := ReadFrame(&buf, DefaultMaxFrame); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	// Header itself cut short.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0}), DefaultMaxFrame); err == nil {
		t.Fatal("short header should error")
	}
}

func TestDecodeReply(t *testing.T) {
	if got, err := DecodeReply([]byte("+#3:7")); err != nil || got != "#3:7" {
		t.Fatalf("ok reply: got %q, %v", got, err)
	}
	_, err := DecodeReply(appendError(nil, CodeBusy, "connection limit 4 reached"))
	if !IsRemote(err, CodeBusy) {
		t.Fatalf("err = %v, want busy RemoteError", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "connection limit 4 reached" {
		t.Fatalf("message lost: %v", err)
	}
	if _, err := DecodeReply(nil); err == nil {
		t.Fatal("empty reply should error")
	}
	if _, err := DecodeReply([]byte("?huh")); err == nil {
		t.Fatal("unknown status byte should error")
	}
}
