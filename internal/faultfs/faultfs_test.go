package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// create makes a file of fs in a fresh directory and returns it with its
// path.
func create(t *testing.T, fs *FS) (storage.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f, path
}

func fill(b byte, n int) []byte { return bytes.Repeat([]byte{b}, n) }

func readBack(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPassthroughAndVolatility(t *testing.T) {
	fs := New(1)
	f, path := create(t, fs)
	if _, err := f.Write(fill(0xaa, 100)); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, path); len(got) != 100 || got[0] != 0xaa {
		t.Fatalf("read-back before sync: %d bytes", len(got))
	}
	// Unsynced data does not survive a crash.
	fs.Crash()
	if got := readBack(t, path); len(got) != 0 {
		t.Fatalf("after crash without sync: %d bytes, want none", len(got))
	}
	// Synced data does.
	f, path = create(t, fs)
	f.Write(fill(0xaa, 100))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write(fill(0xbb, 100))
	fs.Crash()
	if got := readBack(t, path); !bytes.Equal(got, fill(0xaa, 100)) {
		t.Fatalf("after crash with sync: %d bytes, want the synced 100", len(got))
	}
}

func TestShortWriteDamagesDurableImageOnly(t *testing.T) {
	fs := New(42)
	f, path := create(t, fs)
	fs.Inject(Fault{Kind: ShortWrite, At: 1})
	if _, err := f.Write(fill(0x22, 1000)); err != nil {
		t.Fatalf("short write must report success: %v", err)
	}
	if got := readBack(t, path); !bytes.Equal(got, fill(0x22, 1000)) {
		t.Fatal("application read-back must see the full write")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	got := readBack(t, path)
	if len(got) != 1000 || got[len(got)-1] != 0 {
		t.Fatal("short write persisted the full write; want a missing suffix")
	}
	if st := fs.Stats(); st.Fired != 1 {
		t.Fatalf("fired = %d, want 1", st.Fired)
	}
}

func TestTornPageMixesSectors(t *testing.T) {
	fs := New(7)
	f, path := create(t, fs)
	fs.Inject(Fault{Kind: TornPage, At: 1})
	if _, err := f.Write(fill(0x22, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	fs.Crash()
	got := readBack(t, path)
	const sector = 512
	oldN := 0
	for s := 0; s < len(got); s += sector {
		switch sec := got[s : s+sector]; {
		case bytes.Equal(sec, fill(0, sector)):
			oldN++
		case !bytes.Equal(sec, fill(0x22, sector)):
			t.Fatalf("sector %d is neither old nor new", s/sector)
		}
	}
	if oldN == 0 {
		t.Fatal("torn write has no stale sector")
	}
}

func TestWriteErrAtNthWrite(t *testing.T) {
	fs := New(3)
	f, _ := create(t, fs)
	fs.Inject(Fault{Kind: WriteErr, At: 3})
	for i := 1; i <= 2; i++ {
		if _, err := f.Write(fill(0x33, 10)); err != nil {
			t.Fatalf("write %d failed early: %v", i, err)
		}
	}
	if _, err := f.Write(fill(0x33, 10)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 3: got %v, want ErrInjected", err)
	}
	// One-shot: the plan entry is consumed.
	if _, err := f.Write(fill(0x33, 10)); err != nil {
		t.Fatalf("write 4 failed: %v", err)
	}
}

func TestSyncFaults(t *testing.T) {
	for _, k := range []Kind{SyncErr, SyncLost} {
		fs := New(9)
		f, path := create(t, fs)
		f.Write(fill(0x44, 10))
		fs.Inject(Fault{Kind: k, At: 1})
		err := f.Sync()
		if k == SyncErr && !errors.Is(err, ErrInjected) {
			t.Fatalf("%v: got %v, want ErrInjected", k, err)
		}
		if k == SyncLost && err != nil {
			t.Fatalf("%v: got %v, want nil (lying fsync)", k, err)
		}
		fs.Crash()
		if got := readBack(t, path); len(got) != 0 {
			t.Fatalf("%v: data survived a crash without a real sync", k)
		}
	}
}

func TestSyncRetryAfterFailureIsDurable(t *testing.T) {
	fs := New(9)
	f, path := create(t, fs)
	f.Write(fill(0x55, 10))
	fs.Inject(Fault{Kind: SyncErr, At: 1})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatal("expected injected sync failure")
	}
	// The pending image survives the failed sync; a retry persists it.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Crash()
	if got := readBack(t, path); !bytes.Equal(got, fill(0x55, 10)) {
		t.Fatal("retry sync did not persist the pending image")
	}
}

func TestCrashAtFreezesEarlierImage(t *testing.T) {
	fs := New(5)
	f, path := create(t, fs)
	f.Write(fill(0x0a, 10))
	f.Sync()
	opAfterFirst := fs.Ops()
	f.Write(fill(0x0b, 10))
	f.Sync()
	if err := fs.CrashAt(opAfterFirst); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, path); !bytes.Equal(got, fill(0x0a, 10)) {
		t.Fatalf("CrashAt: got %d bytes, want the image at the first sync", len(got))
	}
	// Rewinding to before any sync yields the empty base image.
	if err := fs.CrashAt(0); err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, path); len(got) != 0 {
		t.Fatalf("CrashAt(0): got %d bytes, want none", len(got))
	}
}

func TestSeededDeterminism(t *testing.T) {
	run := func() []byte {
		fs := New(1234)
		f, path := create(t, fs)
		fs.Inject(Fault{Kind: TornPage, At: 1})
		f.Write(fill(0x22, 4096))
		f.Sync()
		fs.Crash()
		return readBack(t, path)
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed, same ops: torn-page damage differs")
	}
}

func TestProbabilisticFaultIsSeeded(t *testing.T) {
	count := func(seed int64) int {
		fs := New(seed)
		f, _ := create(t, fs)
		fs.Inject(Fault{Kind: WriteErr, Prob: 0.3})
		n := 0
		for i := 0; i < 100; i++ {
			if _, err := f.Write(fill(0x66, 10)); err != nil {
				n++
			}
		}
		return n
	}
	if count(77) != count(77) {
		t.Fatal("probabilistic faults not reproducible for equal seeds")
	}
	if count(77) == 0 {
		t.Fatal("Prob=0.3 never fired in 100 writes")
	}
}

// TestStallHoldsWriteUntilResume checks that a stalled write completes,
// cleanly, only after Resume.
func TestStallHoldsWriteUntilResume(t *testing.T) {
	fs := New(1)
	f, path := create(t, fs)
	fs.Inject(Fault{Kind: Stall, At: 1})
	done := make(chan error)
	go func() {
		_, err := f.Write(fill(0x77, 10))
		done <- err
	}()
	<-fs.Stalled()
	select {
	case <-done:
		t.Fatal("stalled write returned before Resume")
	default:
	}
	fs.Resume()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := readBack(t, path); !bytes.Equal(got, fill(0x77, 10)) {
		t.Fatal("resumed write did not complete")
	}
}
