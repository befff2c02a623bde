package lock

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/uid"
)

// TxID identifies a transaction to the lock manager.
type TxID uint64

// GranuleKind distinguishes lockable granule types: class objects and
// instance objects (§7 locks both).
type GranuleKind uint8

// Granule kinds.
const (
	GranuleClass GranuleKind = iota
	GranuleInstance
)

// Granule is a lockable unit.
type Granule struct {
	Kind  GranuleKind
	Class string  // for GranuleClass
	Obj   uid.UID // for GranuleInstance
}

// ClassGranule returns the granule for a class object.
func ClassGranule(name string) Granule { return Granule{Kind: GranuleClass, Class: name} }

// InstanceGranule returns the granule for an instance object.
func InstanceGranule(id uid.UID) Granule { return Granule{Kind: GranuleInstance, Obj: id} }

// String renders the granule.
func (g Granule) String() string {
	if g.Kind == GranuleClass {
		return "class:" + g.Class
	}
	return "obj:" + g.Obj.String()
}

// Sentinel errors.
var (
	ErrDeadlock = errors.New("lock: deadlock detected, request aborted")
	ErrTimeout  = errors.New("lock: timed out waiting for lock")
	ErrNotHeld  = errors.New("lock: not held")
)

// granuleState tracks holders and waiters of one granule.
type granuleState struct {
	holders map[TxID][]Mode
	// waiters counts transactions parked on this granule. Grants do not
	// queue behind waits, so a new holder can become a blocker of an
	// already-parked waiter; the grant path broadcasts when waiters > 0
	// so the waiter recomputes its blockers (and wait-for edges) against
	// the new holder. The state must not be dropped from the granule map
	// while waiters > 0 — parked waiters keep a pointer into it.
	waiters int
	// parked holds the mode each parked transaction is waiting for.
	parked map[TxID]Mode
	// queue lists, in arrival order, the transactions parked through
	// LockQueued. A request from a transaction that holds nothing on the
	// granule waits behind every earlier entry.
	queue []TxID
}

// Manager is a blocking lock manager with deadlock detection via a
// wait-for graph. A transaction is always compatible with itself; a
// request incompatible with another transaction's holdings blocks until
// granted or until the wait would close a cycle, in which case the request
// fails with ErrDeadlock.
type Manager struct {
	mu       sync.Mutex
	cond     *sync.Cond
	granules map[string]*granuleState
	held     map[TxID]map[string]bool // reverse index for ReleaseAll
	waitsFor map[TxID]map[TxID]bool   // wait-for graph edges
	doomed   map[TxID]bool            // deadlock victims pending abort
	// yieldTo maps a deadlock victim to the transaction its abort was
	// meant to unblock. A victim retries under its own TxID, and grants
	// do not queue behind waits, so without this its retry can re-take
	// the lock the winner is still parked on and lose the same cycle
	// again. Until the winner releases, the victim's requests that
	// conflict with the winner's parked request wait behind it.
	yieldTo map[TxID]TxID
	profs   map[TxID]*obs.ProfCtx // per-tx cost attribution (RegisterProf)
	aprof   atomic.Pointer[obs.ProfCtx]
	o       managerObs
}

// managerObs holds the manager's pre-resolved observability instruments
// (see internal/obs): grant/wait/upgrade/deadlock counters plus a wait
// latency histogram, bound from a registry so db.Open can share one
// across subsystems.
type managerObs struct {
	rec       *obs.Recorder
	acquires  *obs.Counter
	waits     *obs.Counter
	upgrades  *obs.Counter
	deadlocks *obs.Counter
	victims   *obs.Counter
	releases  *obs.Counter
	waitNs    *obs.Histogram
}

// NewManager returns an empty lock manager bound to a private obs
// registry (swap in a shared one with SetObservability).
func NewManager() *Manager {
	m := &Manager{
		granules: make(map[string]*granuleState),
		held:     make(map[TxID]map[string]bool),
		waitsFor: make(map[TxID]map[TxID]bool),
		doomed:   make(map[TxID]bool),
		yieldTo:  make(map[TxID]TxID),
		profs:    make(map[TxID]*obs.ProfCtx),
	}
	m.cond = sync.NewCond(&m.mu)
	m.SetObservability(obs.NewRegistry())
	return m
}

// SetObservability rebinds the manager's instruments to r (nil disables
// them). Call before the manager is used concurrently.
func (m *Manager) SetObservability(r *obs.Registry) {
	m.o = managerObs{
		rec:       r.Recorder(),
		acquires:  r.Counter("lock_acquire_total"),
		waits:     r.Counter("lock_wait_total"),
		upgrades:  r.Counter("lock_upgrade_total"),
		deadlocks: r.Counter("lock_deadlock_total"),
		victims:   r.Counter("lock_deadlock_victim_total"),
		releases:  r.Counter("lock_release_all_total"),
		waitNs:    r.Histogram("lock_wait_ns", nil),
	}
}

// RegisterProf attributes tx's lock waits to p until UnregisterProf or
// ReleaseAll. Exact under concurrency: waits are keyed by the waiting
// transaction, never guessed from ambient state.
func (m *Manager) RegisterProf(tx TxID, p *obs.ProfCtx) {
	m.mu.Lock()
	if p == nil {
		delete(m.profs, tx)
	} else {
		m.profs[tx] = p
	}
	m.mu.Unlock()
}

// UnregisterProf removes tx's profile registration.
func (m *Manager) UnregisterProf(tx TxID) { m.RegisterProf(tx, nil) }

// AttachProf installs an ambient profile context: lock waits by
// transactions with no registration are attributed to it. Ambient
// attribution is exact only while a single profiled operation runs at a
// time (the shell's (profile ...) path); DetachProf by passing nil.
func (m *Manager) AttachProf(p *obs.ProfCtx) { m.aprof.Store(p) }

// profFor returns the context tx's costs attribute to: its registered
// context, else the ambient one, else nil. Caller holds m.mu.
func (m *Manager) profFor(tx TxID) *obs.ProfCtx {
	if p := m.profs[tx]; p != nil {
		return p
	}
	return m.aprof.Load()
}

func (m *Manager) state(key string) *granuleState {
	st := m.granules[key]
	if st == nil {
		st = &granuleState{holders: make(map[TxID][]Mode), parked: make(map[TxID]Mode)}
		m.granules[key] = st
	}
	return st
}

// blockers returns the transactions whose holdings conflict with tx
// requesting mode on st. Caller holds m.mu.
func (st *granuleState) blockers(tx TxID, mode Mode) []TxID {
	var out []TxID
	for other, modes := range st.holders {
		if other == tx {
			continue
		}
		for _, h := range modes {
			if !Compatible(h, mode) {
				out = append(out, other)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// findCycle reports the transactions on a wait-for cycle that adding
// edges tx->blockers would close: the path blocker -> ... -> tx plus tx
// itself. Paths through already-doomed transactions are ignored — their
// abort is in flight and will break the cycle without a second victim.
// An empty result means no (new) deadlock. Caller holds m.mu.
func (m *Manager) findCycle(tx TxID, blockers []TxID) []TxID {
	seen := map[TxID]bool{}
	var path []TxID
	var dfs func(cur TxID) bool
	dfs = func(cur TxID) bool {
		if m.doomed[cur] {
			return false
		}
		if cur == tx {
			return true
		}
		if seen[cur] {
			return false
		}
		seen[cur] = true
		path = append(path, cur)
		for next := range m.waitsFor[cur] {
			if dfs(next) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	for _, b := range blockers {
		if dfs(b) {
			return append(path, tx)
		}
	}
	return nil
}

// chooseVictim picks the youngest transaction (highest TxID, i.e. most
// recently started) from the cycle — it has done the least work and its
// abort is the cheapest way to break the deadlock.
func chooseVictim(cycle []TxID) TxID {
	victim := cycle[0]
	for _, t := range cycle[1:] {
		if t > victim {
			victim = t
		}
	}
	return victim
}

// abortVictim fails tx's pending request with ErrDeadlock. Caller holds
// m.mu. The victim's locks stay held until its transaction aborts and
// calls ReleaseAll — 2PL's usual abort path — which also clears its doom.
func (m *Manager) abortVictim(tx TxID, key string, mode Mode, g Granule, waitSpan uint64) error {
	m.o.victims.Inc()
	if tr := m.o.rec; tr.Active() {
		if waitSpan != 0 {
			tr.End(waitSpan, "lock.wait", obs.F("outcome", "deadlock"))
		} else {
			tr.Point(0, "lock.deadlock", obs.F("tx", tx), obs.F("granule", key), obs.F("mode", mode))
		}
	}
	// Black-box trigger: a deadlock-victim abort dumps the ring so the
	// operations leading up to the cycle are on record. Throttled and
	// incremental: under a deadlock storm each dump adds only the records
	// since the last one.
	if rec := m.o.rec; rec != nil {
		rec.Op("lock.deadlock", fmt.Sprintf("tx=%d %s %s", tx, mode, key), time.Now(), 0, "deadlock", "")
		rec.DumpThrottled("deadlock-victim abort")
	}
	return fmt.Errorf("tx %d requesting %s on %s: %w", tx, mode, g, ErrDeadlock)
}

// Lock acquires mode on g for tx, blocking while incompatible locks are
// held by other transactions. When waiting would close a wait-for cycle
// the manager picks the youngest cycle member as the victim: if that is
// the requester it fails immediately with ErrDeadlock; otherwise the
// victim is doomed — its own pending Lock call wakes and returns
// ErrDeadlock — and the requester keeps waiting for the victim's abort
// to release its locks. Re-requesting a held mode is a no-op; requesting
// an additional mode records both (lock conversion by accumulation).
func (m *Manager) Lock(tx TxID, g Granule, mode Mode) error {
	return m.lock(tx, g, mode, false)
}

// LockQueued is Lock for a request that must not starve: grants do not
// queue behind waits, so a stream of requests compatible with the
// holders could overtake it forever. Once it parks, a request from any
// transaction holding nothing on g waits behind it. A schema change's X
// on a class granule (Protocol.LockSchema) is the one such request.
func (m *Manager) LockQueued(tx TxID, g Granule, mode Mode) error {
	return m.lock(tx, g, mode, true)
}

func (m *Manager) lock(tx TxID, g Granule, mode Mode, queued bool) error {
	key := g.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(key)
	var waitStart time.Time
	var waitSpan uint64
	waited := false
	leaveWait := func() {
		if waited {
			st.waiters--
			delete(st.parked, tx)
			st.queue = slices.DeleteFunc(st.queue, func(w TxID) bool { return w == tx })
		}
	}
	for {
		if m.doomed[tx] {
			leaveWait()
			return m.abortVictim(tx, key, mode, g, waitSpan)
		}
		blockers := st.blockers(tx, mode)
		if w, ok := m.yieldTo[tx]; ok {
			if pm, parked := st.parked[w]; parked && !Compatible(pm, mode) {
				blockers = append(blockers, w)
			}
		}
		if len(st.holders[tx]) == 0 {
			for _, w := range st.queue {
				if w == tx {
					break
				}
				blockers = append(blockers, w)
			}
		}
		if len(blockers) == 0 {
			break
		}
		if cycle := m.findCycle(tx, blockers); len(cycle) > 0 {
			m.o.deadlocks.Inc()
			victim := chooseVictim(cycle)
			// Each cycle member waits for the next (the requester, last,
			// for the first), so the victim's abort unblocks the member
			// before it.
			for i, t := range cycle {
				if t == victim {
					m.yieldTo[victim] = cycle[(i+len(cycle)-1)%len(cycle)]
				}
			}
			if tr := m.o.rec; tr.Active() {
				tr.Point(waitSpan, "lock.deadlock", obs.F("tx", tx), obs.F("granule", key), obs.F("mode", mode), obs.F("victim", victim))
			}
			if victim == tx {
				leaveWait()
				return m.abortVictim(tx, key, mode, g, waitSpan)
			}
			// Doom the victim and keep waiting: it is parked in its own
			// Lock call (every cycle member is a waiter), so the
			// broadcast wakes it, it observes its doom, and its abort
			// releases the locks this request is queued behind.
			m.doomed[victim] = true
			m.cond.Broadcast()
		}
		if !waited {
			// First block on this request: count the wait once and start
			// the clock. Blocking is already slow, so timing it is free
			// relative to the sleep.
			waited = true
			st.waiters++
			st.parked[tx] = mode
			if queued {
				st.queue = append(st.queue, tx)
			}
			m.o.waits.Inc()
			waitStart = time.Now()
			if tr := m.o.rec; tr.Active() {
				waitSpan = tr.Begin(0, "lock.wait", obs.F("tx", tx), obs.F("granule", key), obs.F("mode", mode))
			}
		}
		edges := m.waitsFor[tx]
		if edges == nil {
			edges = make(map[TxID]bool)
			m.waitsFor[tx] = edges
		}
		for _, b := range blockers {
			edges[b] = true
		}
		m.cond.Wait()
		delete(m.waitsFor, tx)
	}
	leaveWait()
	if waited {
		d := time.Since(waitStart)
		m.o.waitNs.Observe(int64(d))
		m.o.rec.Op("lock.wait", key, waitStart, d, "granted", "")
		m.profFor(tx).LockWait(mode.String(), d)
		if tr := m.o.rec; tr.Active() {
			tr.End(waitSpan, "lock.wait", obs.F("outcome", "granted"))
		}
	}
	for _, h := range st.holders[tx] {
		if h == mode {
			return nil
		}
	}
	if len(st.holders[tx]) > 0 {
		// Accumulating a second mode on a held granule is a conversion
		// (upgrade) in this manager's model.
		m.o.upgrades.Inc()
		if tr := m.o.rec; tr.Active() {
			tr.Point(0, "lock.upgrade", obs.F("tx", tx), obs.F("granule", key), obs.F("mode", mode))
		}
	}
	m.o.acquires.Inc()
	if tr := m.o.rec; tr.Active() {
		tr.Point(0, "lock.acquire", obs.F("tx", tx), obs.F("granule", key), obs.F("mode", mode))
	}
	st.holders[tx] = append(st.holders[tx], mode)
	hs := m.held[tx]
	if hs == nil {
		hs = make(map[string]bool)
		m.held[tx] = hs
	}
	hs[key] = true
	if st.waiters > 0 {
		// This grant may conflict with a parked waiter's pending request
		// (grants do not queue behind waits). Wake the waiters so they
		// recompute their blockers and wait-for edges against the new
		// holder — otherwise their edges go stale and a deadlock cycle
		// running through this grant is invisible to findCycle.
		m.cond.Broadcast()
	}
	return nil
}

// TryLock acquires mode on g without blocking; ok reports success.
func (m *Manager) TryLock(tx TxID, g Granule, mode Mode) bool {
	key := g.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(key)
	if len(st.blockers(tx, mode)) > 0 {
		return false
	}
	for _, h := range st.holders[tx] {
		if h == mode {
			return true
		}
	}
	m.o.acquires.Inc()
	st.holders[tx] = append(st.holders[tx], mode)
	hs := m.held[tx]
	if hs == nil {
		hs = make(map[string]bool)
		m.held[tx] = hs
	}
	hs[key] = true
	if st.waiters > 0 {
		m.cond.Broadcast() // same stale-edge hazard as the Lock grant path
	}
	return true
}

// Holds reports whether tx holds mode on g.
func (m *Manager) Holds(tx TxID, g Granule, mode Mode) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.granules[g.String()]
	if st == nil {
		return false
	}
	for _, h := range st.holders[tx] {
		if h == mode {
			return true
		}
	}
	return false
}

// HeldModes returns the modes tx holds on g.
func (m *Manager) HeldModes(tx TxID, g Granule) []Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.granules[g.String()]
	if st == nil {
		return nil
	}
	return append([]Mode(nil), st.holders[tx]...)
}

// Unlock releases every mode tx holds on g.
func (m *Manager) Unlock(tx TxID, g Granule) error {
	key := g.String()
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.granules[key]
	if st == nil || len(st.holders[tx]) == 0 {
		return fmt.Errorf("tx %d on %s: %w", tx, g, ErrNotHeld)
	}
	delete(st.holders, tx)
	if len(st.holders) == 0 && st.waiters == 0 {
		delete(m.granules, key)
	}
	if hs := m.held[tx]; hs != nil {
		delete(hs, key)
	}
	m.cond.Broadcast()
	return nil
}

// ReleaseAll releases every lock held by tx (commit/abort).
func (m *Manager) ReleaseAll(tx TxID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.o.releases.Inc()
	if tr := m.o.rec; tr.Active() {
		tr.Point(0, "lock.release-all", obs.F("tx", tx), obs.F("granules", len(m.held[tx])))
	}
	for key := range m.held[tx] {
		if st := m.granules[key]; st != nil {
			delete(st.holders, tx)
			if len(st.holders) == 0 && st.waiters == 0 {
				delete(m.granules, key)
			}
		}
	}
	delete(m.held, tx)
	delete(m.waitsFor, tx)
	// Waiters' edges to tx are stale until they wake and recompute; drop
	// them now, or a retry under tx's TxID could close a false cycle.
	for _, edges := range m.waitsFor {
		delete(edges, tx)
	}
	delete(m.doomed, tx)
	delete(m.profs, tx)
	// tx's own yieldTo entry survives: its retry reuses the TxID.
	for v, w := range m.yieldTo {
		if w == tx {
			delete(m.yieldTo, v)
		}
	}
	m.cond.Broadcast()
}

// LockCount returns the number of granules on which tx holds locks.
func (m *Manager) LockCount(tx TxID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[tx])
}
