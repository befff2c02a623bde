// Black-box flight recorder: an always-on, lock-free ring of compact
// per-operation records, kept cheap enough to run in production (one
// atomic add plus one pointer store per record) and dumped only when
// something goes wrong — a deadlock-victim abort, a slow-op threshold
// breach, a checkpoint failure on the crash path — or on demand via the
// shell's (flight dump) and the /flight HTTP endpoint.
//
// The ring is a slice of atomic record pointers with a monotonically
// increasing cursor: writers claim a sequence number with one atomic
// add and store their record at seq mod len, so concurrent writers
// never block each other and a reader sees each slot either empty, or
// holding a complete record (possibly from an older lap). Records()
// sorts by sequence number to restore order and drops at most the few
// slots a concurrent lap is overwriting.
package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecord is one completed operation in the ring.
type FlightRecord struct {
	Seq     uint64        `json:"seq"`
	At      time.Time     `json:"at"`
	Op      string        `json:"op"`   // e.g. "components-of", "txn.commit"
	Root    string        `json:"root"` // root UID / lock key / detail
	Dur     time.Duration `json:"dur_ns"`
	Outcome string        `json:"outcome"` // "ok", "err", "deadlock", ...
	Costs   string        `json:"costs,omitempty"`
}

func (r FlightRecord) String() string {
	s := fmt.Sprintf("#%d %s %s %s %s", r.Seq, r.At.Format("15:04:05.000"), r.Op, r.Root, r.Dur.Round(time.Microsecond))
	if r.Outcome != "" && r.Outcome != "ok" {
		s += " !" + r.Outcome
	}
	if r.Costs != "" {
		s += " [" + r.Costs + "]"
	}
	return s
}

// FlightRecorder is the lock-free ring. The zero value is unusable; use
// NewFlightRecorder. Every method accepts a nil receiver.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightRecord]
	cur   atomic.Uint64 // next sequence number to claim

	records *Counter // flight_records_total, bound by the owning registry
	dumps   *Counter // flight_dumps_total

	wmu      sync.Mutex
	w        io.Writer    // dump destination; default os.Stderr
	lastDump atomic.Int64 // unix ns of the last throttled dump
	// newFrom is the first sequence number no throttled dump has printed.
	newFrom atomic.Uint64
}

// NewFlightRecorder returns a recorder with a ring of the given
// capacity (minimum 64) dumping to stderr.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 64 {
		capacity = 64
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightRecord], capacity), w: os.Stderr}
}

// SetWriter redirects dumps (tests capture them here). Safe on nil.
func (f *FlightRecorder) SetWriter(w io.Writer) {
	if f == nil {
		return
	}
	f.wmu.Lock()
	f.w = w
	f.wmu.Unlock()
}

// Record appends one operation record to the ring.
func (f *FlightRecorder) Record(op, root string, dur time.Duration, outcome, costs string) {
	if f == nil {
		return
	}
	seq := f.cur.Add(1) - 1
	rec := &FlightRecord{Seq: seq, At: time.Now(), Op: op, Root: root, Dur: dur, Outcome: outcome, Costs: costs}
	f.slots[seq%uint64(len(f.slots))].Store(rec)
	f.records.Inc()
}

// Len returns the number of records currently retained.
func (f *FlightRecorder) Len() int {
	return len(f.Records())
}

// Records returns the retained records in sequence order, oldest first.
func (f *FlightRecorder) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	out := make([]FlightRecord, 0, len(f.slots))
	for i := range f.slots {
		if r := f.slots[i].Load(); r != nil {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Clear empties the ring (sequence numbers keep increasing).
func (f *FlightRecorder) Clear() {
	if f == nil {
		return
	}
	for i := range f.slots {
		f.slots[i].Store(nil)
	}
}

// Dump writes every retained record to the configured writer, newest
// last, headed by the reason. It returns the number of records written.
func (f *FlightRecorder) Dump(reason string) int {
	if f == nil {
		return 0
	}
	return f.write(reason, f.Records())
}

func (f *FlightRecorder) write(reason string, recs []FlightRecord) int {
	f.wmu.Lock()
	w := f.w
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "flight dump (%s): %d records\n", reason, len(recs))
	for _, r := range recs {
		fmt.Fprintf(w, "  %s\n", r)
	}
	f.wmu.Unlock()
	f.dumps.Inc()
	return len(recs)
}

// DumpThrottled dumps at most once per second — for triggers that can
// fire in bursts (deadlock victims, slow-op breaches under a storm) — and
// writes only the records newer than its previous dump, so a burst of
// triggers does not re-print the same ring. Returns the record count, or
// -1 when suppressed.
func (f *FlightRecorder) DumpThrottled(reason string) int {
	if f == nil {
		return 0
	}
	now := time.Now().UnixNano()
	last := f.lastDump.Load()
	if now-last < int64(time.Second) || !f.lastDump.CompareAndSwap(last, now) {
		return -1
	}
	recs := f.Records()
	from := f.newFrom.Load()
	recs = recs[sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= from }):]
	if len(recs) > 0 {
		f.newFrom.Store(recs[len(recs)-1].Seq + 1)
	}
	return f.write(reason, recs)
}
