// The recorder: one always-on, lock-free ring behind the trace, slow and
// flight views. Completed operations (traversals, deletes, lock
// waits, deadlocks, WAL fsyncs, profiled transaction ends, checkpoint
// failures) always write an op record: an allocation, one atomic add
// and one pointer store. Trace spans (Begin/End/Point) write records only
// while tracing is on. Three views read the same ring:
//
//	flight  every retained record (the black box)
//	trace   the span records
//	slow    the op records at or above the slow threshold
//
// The ring dumps (oldest first, to stderr or SetWriter) on a
// deadlock-victim abort and on a slow-threshold breach, both throttled
// to one dump a second that prints only the records no throttled dump
// has printed yet, and unthrottled on a checkpoint failure.
//
// Writers claim a sequence number with one atomic add and store their
// record at seq mod RingCapacity, so concurrent writers never block each
// other and a reader sees each slot either empty or holding a complete
// record (possibly from an older lap). Views sort by sequence number to
// restore order and may miss the few slots a concurrent lap is
// overwriting.
package obs

import (
	"cmp"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RingCapacity is the number of records the ring retains. The slots are
// 8 KiB of pointers; a full ring holds about 170 KiB of records.
const RingCapacity = 1024

// Field is one key/value annotation on a span record.
type Field struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// F builds a Field, stringifying the value with %v.
func F(key string, val any) Field {
	s, ok := val.(string)
	if !ok {
		s = fmt.Sprintf("%v", val)
	}
	return Field{Key: key, Val: s}
}

// Kind classifies a record.
type Kind string

// Record kinds. Spans nest through Parent: a Begin opens span Seq under
// Parent, a Point attaches to Parent, and an End closes Span.
const (
	KindBegin Kind = "B"
	KindEnd   Kind = "E"
	KindPoint Kind = "I"
	KindOp    Kind = "op" // one completed operation: Dur, Outcome, Costs
)

// Record is one entry in the ring. Seq is the recorder's monotonic
// sequence number (from 1), so a view reads in emission order even
// after wrap-around; a span's id is its Begin record's Seq. At is when
// an op began and when a span record was written.
type Record struct {
	Seq     uint64        `json:"seq"`
	At      time.Time     `json:"at"`
	Kind    Kind          `json:"kind"`
	Name    string        `json:"name"`             // e.g. "components-of", "core.delete.object"
	Detail  string        `json:"detail,omitempty"` // op: root UID, lock key, file, ...
	Span    uint64        `json:"span,omitempty"`
	Parent  uint64        `json:"parent,omitempty"`
	Dur     time.Duration `json:"dur_ns,omitempty"`
	Outcome string        `json:"outcome,omitempty"` // op: "ok", "err", "deadlock", ...
	Costs   string        `json:"costs,omitempty"`
	Fields  []Field       `json:"fields,omitempty"`
}

// String renders the record on one line for dumps and shells.
func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s ", r.Seq, r.At.Format("15:04:05.000"))
	if r.Kind == KindOp {
		fmt.Fprintf(&b, "%s %s %s", r.Name, r.Detail, r.Dur.Round(time.Microsecond))
		if r.Outcome != "" && r.Outcome != "ok" {
			b.WriteString(" !" + r.Outcome)
		}
		if r.Costs != "" {
			b.WriteString(" [" + r.Costs + "]")
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%s %s", r.Kind, r.Name)
	if r.Span != 0 {
		fmt.Fprintf(&b, " span=%d", r.Span)
	}
	if r.Parent != 0 {
		fmt.Fprintf(&b, " parent=%d", r.Parent)
	}
	for _, f := range r.Fields {
		b.WriteString(" " + f.Key + "=" + f.Val)
	}
	return b.String()
}

// Recorder is the ring. The zero value is ready to use and dumps to
// stderr; NewRegistry binds its record and dump counters. Every method
// accepts a nil receiver.
type Recorder struct {
	slots   [RingCapacity]atomic.Pointer[Record]
	cur     atomic.Uint64 // last sequence number claimed
	tracing atomic.Bool
	thresh  atomic.Int64 // slow threshold in ns; 0 = slow view off

	records *Counter // flight_records_total
	dumps   *Counter // flight_dumps_total

	wmu      sync.Mutex
	w        io.Writer    // dump destination; nil = os.Stderr
	lastDump atomic.Int64 // unix ns of the last throttled dump
	// newFrom is the first sequence number no throttled dump has printed.
	newFrom atomic.Uint64
}

func (r *Recorder) push(rec *Record) uint64 {
	seq := r.cur.Add(1)
	rec.Seq = seq
	if rec.Kind == KindBegin {
		rec.Span = seq
	}
	r.slots[seq%RingCapacity].Store(rec)
	r.records.Inc()
	return seq
}

// Active reports whether span records are written: one atomic load, so
// call sites guard field construction with it and the disabled path
// allocates nothing.
func (r *Recorder) Active() bool {
	return r != nil && r.tracing.Load()
}

// SetActive turns tracing on or off.
func (r *Recorder) SetActive(on bool) {
	if r != nil {
		r.tracing.Store(on)
	}
}

// Begin opens a span named name under parent (0 = root), returning the
// new span id, or 0 when tracing is off.
func (r *Recorder) Begin(parent uint64, name string, fields ...Field) uint64 {
	if !r.Active() {
		return 0
	}
	return r.push(&Record{At: time.Now(), Kind: KindBegin, Name: name, Parent: parent, Fields: fields})
}

// End closes the span opened by Begin. A zero span (Begin while tracing
// was off, or tracing switched on mid-operation) is ignored.
func (r *Recorder) End(span uint64, name string, fields ...Field) {
	if span == 0 || !r.Active() {
		return
	}
	r.push(&Record{At: time.Now(), Kind: KindEnd, Name: name, Span: span, Fields: fields})
}

// Point records an instant event under parent (0 = root).
func (r *Recorder) Point(parent uint64, name string, fields ...Field) {
	if !r.Active() {
		return
	}
	r.push(&Record{At: time.Now(), Kind: KindPoint, Name: name, Parent: parent, Fields: fields})
}

// Op records one completed operation that began at start and took dur,
// whether or not tracing is on. The caller already read the clock to
// time the operation, so Op reads none. When dur meets the slow
// threshold it then triggers the throttled dump, which therefore
// includes this record.
func (r *Recorder) Op(name, detail string, start time.Time, dur time.Duration, outcome, costs string) {
	if r == nil {
		return
	}
	r.push(&Record{At: start, Kind: KindOp, Name: name, Detail: detail, Dur: dur, Outcome: outcome, Costs: costs})
	if t := r.thresh.Load(); t > 0 && int64(dur) >= t {
		r.DumpThrottled("slow-op threshold breach")
	}
}

// SetThreshold sets the slow view's minimum duration; 0 turns it off.
func (r *Recorder) SetThreshold(d time.Duration) {
	if r != nil {
		r.thresh.Store(int64(d))
	}
}

// Threshold returns the slow view's minimum duration (0 = off).
func (r *Recorder) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.thresh.Load())
}

func all(*Record) bool        { return true }
func isSpan(rec *Record) bool { return rec.Kind != KindOp }

// Records is the flight view: every retained record, oldest first.
func (r *Recorder) Records() []Record {
	return r.view(all)
}

// Trace is the trace view: the retained span records, oldest first.
func (r *Recorder) Trace() []Record {
	return r.view(isSpan)
}

// Slow is the slow view: the retained op records at or above the
// threshold, oldest first; none while the threshold is 0.
func (r *Recorder) Slow() []Record {
	t := r.Threshold()
	return r.view(func(rec *Record) bool { return t > 0 && rec.Kind == KindOp && rec.Dur >= t })
}

func (r *Recorder) view(keep func(*Record) bool) []Record {
	if r == nil {
		return nil
	}
	out := []Record{}
	for i := range r.slots {
		if rec := r.slots[i].Load(); rec != nil && keep(rec) {
			out = append(out, *rec)
		}
	}
	slices.SortFunc(out, func(a, b Record) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Clear empties the ring (sequence numbers keep increasing).
func (r *Recorder) Clear() {
	r.drop(all)
}

// ClearTrace drops the span records and keeps the op records.
func (r *Recorder) ClearTrace() {
	r.drop(isSpan)
}

func (r *Recorder) drop(match func(*Record) bool) {
	if r == nil {
		return
	}
	for i := range r.slots {
		if rec := r.slots[i].Load(); rec != nil && match(rec) {
			r.slots[i].CompareAndSwap(rec, nil) // a newer lap's record stays
		}
	}
}

// SetWriter redirects dumps (tests capture them here).
func (r *Recorder) SetWriter(w io.Writer) {
	if r == nil {
		return
	}
	r.wmu.Lock()
	r.w = w
	r.wmu.Unlock()
}

// Dump writes every retained record to the writer, oldest first, headed
// by the reason. It returns the number of records written.
func (r *Recorder) Dump(reason string) int {
	if r == nil {
		return 0
	}
	return r.write(reason, r.Records())
}

func (r *Recorder) write(reason string, recs []Record) int {
	r.wmu.Lock()
	w := r.w
	if w == nil {
		w = os.Stderr
	}
	fmt.Fprintf(w, "flight dump (%s): %d records\n", reason, len(recs))
	for _, rec := range recs {
		fmt.Fprintf(w, "  %s\n", rec)
	}
	r.wmu.Unlock()
	r.dumps.Inc()
	return len(recs)
}

// DumpThrottled dumps at most once per second — for triggers that can
// fire in bursts (deadlock victims, slow-op breaches under a storm) — and
// writes only the records newer than its previous dump, so a burst of
// triggers does not re-print the same ring. Returns the record count, or
// -1 when suppressed.
func (r *Recorder) DumpThrottled(reason string) int {
	if r == nil {
		return 0
	}
	now := time.Now().UnixNano()
	last := r.lastDump.Load()
	if now-last < int64(time.Second) || !r.lastDump.CompareAndSwap(last, now) {
		return -1
	}
	from := r.newFrom.Load()
	recs := r.view(func(rec *Record) bool { return rec.Seq >= from })
	if len(recs) > 0 {
		r.newFrom.Store(recs[len(recs)-1].Seq + 1)
	}
	return r.write(reason, recs)
}
