package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/uid"
)

// SegmentID identifies a physical segment: a named set of pages that one
// or more classes are assigned to. Clustering only happens within a
// segment (§2.3: "clustering is only performed if the classes of the two
// objects are stored in the same physical segment").
type SegmentID uint32

// RID locates a record: page and slot.
type RID struct {
	Page PageID
	Slot int
}

// Sentinel errors for the object store.
var (
	ErrNotFound   = errors.New("storage: object not found")
	ErrDupSegment = errors.New("storage: duplicate segment name")
	ErrNoSegment  = errors.New("storage: no such segment")
)

type segment struct {
	ID    SegmentID
	Name  string
	Pages []PageID
}

// Store maps UIDs to records placed in segments, with optional clustered
// placement next to a designated neighbor object. It is safe for
// concurrent use. Synchronization is two-level: s.mu guards the segment
// tables and the UID directory in short critical sections, while a
// per-segment reader/writer latch serializes page operations within one
// segment — every page belongs to exactly one segment, so writers of
// different segments touch disjoint pages and proceed in parallel
// (disjoint composite hierarchies live in different class segments, which
// is where the concurrent write path gets its storage parallelism).
type Store struct {
	mu        sync.RWMutex
	pool      *BufferPool
	segs      map[SegmentID]*segment
	latches   map[SegmentID]*sync.RWMutex
	segByName map[string]SegmentID
	dir       map[uid.UID]RID
	segOf     map[uid.UID]SegmentID
	nextSeg   SegmentID
}

// NewStore returns an empty store over the pool.
func NewStore(pool *BufferPool) *Store {
	return &Store{
		pool:      pool,
		segs:      make(map[SegmentID]*segment),
		latches:   make(map[SegmentID]*sync.RWMutex),
		segByName: make(map[string]SegmentID),
		dir:       make(map[uid.UID]RID),
		segOf:     make(map[uid.UID]SegmentID),
		nextSeg:   1,
	}
}

// Pool returns the store's buffer pool (for stats in benches).
func (s *Store) Pool() *BufferPool { return s.pool }

// CreateSegment registers a new segment.
func (s *Store) CreateSegment(name string) (SegmentID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.segByName[name]; ok {
		return 0, fmt.Errorf("%q: %w", name, ErrDupSegment)
	}
	id := s.nextSeg
	s.nextSeg++
	s.segs[id] = &segment{ID: id, Name: name}
	s.latches[id] = &sync.RWMutex{}
	s.segByName[name] = id
	return id, nil
}

// SegmentByName returns the segment with the given name.
func (s *Store) SegmentByName(name string) (SegmentID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.segByName[name]
	return id, ok
}

// HasSegment reports whether the segment ID is registered. WAL replay
// uses it to decide whether a record's persisted segment can be honored
// or the class→segment assignment must be re-derived.
func (s *Store) HasSegment(seg SegmentID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.segs[seg]
	return ok
}

// NextSegment returns the ID the next CreateSegment call will assign.
// Recovery snapshots it right after LoadMeta as the boundary between
// checkpoint-loaded segments (stable IDs a WAL record may reference)
// and segments created during replay itself (fresh IDs that need not
// match the pre-crash run's numbering).
func (s *Store) NextSegment() SegmentID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextSeg
}

// SegmentOf returns the segment an object is stored in.
func (s *Store) SegmentOf(id uid.UID) (SegmentID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sg, ok := s.segOf[id]
	return sg, ok
}

// Has reports whether the object exists.
func (s *Store) Has(id uid.UID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.dir[id]
	return ok
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.dir)
}

// PageOf returns the page an object currently lives on, for clustering
// measurements.
func (s *Store) PageOf(id uid.UID) (PageID, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rid, ok := s.dir[id]
	return rid.Page, ok
}

// Put inserts or updates the record for id. seg selects the segment for a
// NEW object; an existing object is updated wherever it currently lives.
// For a new object, near (when non-nil, present, and in the same segment)
// requests clustered placement on the same page as near, falling back to
// any page in the segment with room, then to a fresh page. Updates rewrite
// in place when the record fits and relocate within the segment otherwise.
func (s *Store) Put(seg SegmentID, id uid.UID, rec []byte, near uid.UID) error {
	if id.IsNil() {
		return fmt.Errorf("storage: put of nil uid")
	}
	for {
		s.mu.RLock()
		if cur, ok := s.segOf[id]; ok {
			seg = cur
		}
		sg := s.segs[seg]
		latch := s.latches[seg]
		s.mu.RUnlock()
		if sg == nil {
			return fmt.Errorf("segment %d: %w", seg, ErrNoSegment)
		}
		latch.Lock()
		// Re-read under the latch: directory entries for this segment's
		// objects only change under its latch, so what the lookup saw may
		// be stale — retry against the object's current home.
		s.mu.RLock()
		rid, exists := s.dir[id]
		cur, curOK := s.segOf[id]
		s.mu.RUnlock()
		if exists && cur != seg {
			latch.Unlock()
			continue
		}
		if !exists && curOK {
			// Unreachable (dir and segOf are updated together), but keep
			// the invariant explicit.
			latch.Unlock()
			continue
		}
		var err error
		if exists {
			err = s.updateLatched(sg, id, rid, rec)
		} else {
			err = s.insertLatched(sg, id, rec, near)
		}
		latch.Unlock()
		return err
	}
}

// updateLatched rewrites id's record in place, or relocates it within the
// segment when the page has no room. Caller holds the segment latch.
func (s *Store) updateLatched(sg *segment, id uid.UID, rid RID, rec []byte) error {
	p, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	err = p.Update(rid.Slot, rec)
	if err == nil {
		s.pool.Unpin(rid.Page, true)
		return nil
	}
	if !errors.Is(err, ErrPageFull) {
		s.pool.Unpin(rid.Page, false)
		return err
	}
	// Relocate: delete here, insert elsewhere in the segment. The
	// directory entry is overwritten by the insert in one step, so a
	// concurrent reader never sees the object transiently missing.
	if derr := p.Delete(rid.Slot); derr != nil {
		s.pool.Unpin(rid.Page, false)
		return derr
	}
	s.pool.Unpin(rid.Page, true)
	return s.insertLatched(sg, id, rec, uid.Nil)
}

// insertLatched places a record in the segment. Caller holds the segment
// latch, which also makes it the only mutator of sg.Pages; the append
// additionally takes s.mu so SaveMeta's shared-latch read stays safe.
func (s *Store) insertLatched(sg *segment, id uid.UID, rec []byte, near uid.UID) error {
	if len(rec) > MaxRecord {
		return fmt.Errorf("storage: object %v: %w", id, ErrRecordTooBig)
	}
	// Candidate pages in preference order: the neighbor's page, then the
	// segment's pages from most recently added.
	var candidates []PageID
	if !near.IsNil() {
		s.mu.RLock()
		nrid, ok := s.dir[near]
		nseg := s.segOf[near]
		s.mu.RUnlock()
		if ok && nseg == sg.ID {
			candidates = append(candidates, nrid.Page)
		}
	}
	for i := len(sg.Pages) - 1; i >= 0 && len(candidates) < 4; i-- {
		pg := sg.Pages[i]
		if len(candidates) > 0 && candidates[0] == pg {
			continue
		}
		candidates = append(candidates, pg)
	}
	for _, pg := range candidates {
		p, err := s.pool.Fetch(pg)
		if err != nil {
			return err
		}
		slot, ierr := p.Insert(rec)
		if ierr == nil {
			s.pool.Unpin(pg, true)
			s.setDir(id, RID{Page: pg, Slot: slot}, sg.ID)
			return nil
		}
		s.pool.Unpin(pg, false)
		if !errors.Is(ierr, ErrPageFull) {
			return ierr
		}
	}
	// No room anywhere tried: extend the segment.
	p, err := s.pool.NewPage()
	if err != nil {
		return err
	}
	slot, ierr := p.Insert(rec)
	pg := p.ID
	s.pool.Unpin(pg, true)
	if ierr != nil {
		return ierr
	}
	s.mu.Lock()
	sg.Pages = append(sg.Pages, pg)
	s.mu.Unlock()
	s.setDir(id, RID{Page: pg, Slot: slot}, sg.ID)
	return nil
}

func (s *Store) setDir(id uid.UID, rid RID, seg SegmentID) {
	s.mu.Lock()
	s.dir[id] = rid
	s.segOf[id] = seg
	s.mu.Unlock()
}

// Get returns a copy of the record for id.
func (s *Store) Get(id uid.UID) ([]byte, error) {
	s.mu.RLock()
	sgid, ok := s.segOf[id]
	latch := s.latches[sgid]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	latch.RLock()
	defer latch.RUnlock()
	// Re-read under the latch: the record may have relocated (or been
	// deleted) between the lookup and the latch acquisition.
	s.mu.RLock()
	rid, ok := s.dir[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	p, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := p.Read(rid.Slot)
	if err != nil {
		s.pool.Unpin(rid.Page, false)
		return nil, err
	}
	out := append([]byte(nil), rec...)
	s.pool.Unpin(rid.Page, false)
	return out, nil
}

// Delete removes the record for id.
func (s *Store) Delete(id uid.UID) error {
	s.mu.RLock()
	sgid, ok := s.segOf[id]
	latch := s.latches[sgid]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	latch.Lock()
	defer latch.Unlock()
	s.mu.RLock()
	rid, ok := s.dir[id]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%v: %w", id, ErrNotFound)
	}
	p, err := s.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	derr := p.Delete(rid.Slot)
	s.pool.Unpin(rid.Page, derr == nil)
	if derr != nil {
		return derr
	}
	s.mu.Lock()
	delete(s.dir, id)
	delete(s.segOf, id)
	s.mu.Unlock()
	return nil
}

// UIDs returns every stored UID in sorted order.
func (s *Store) UIDs() []uid.UID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]uid.UID, 0, len(s.dir))
	for id := range s.dir {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ScanSegment calls fn for every object in the segment, in UID order. fn
// receives a copy of the record.
func (s *Store) ScanSegment(seg SegmentID, fn func(id uid.UID, rec []byte) error) error {
	s.mu.RLock()
	var ids []uid.UID
	for id, sg := range s.segOf {
		if sg == seg {
			ids = append(ids, id)
		}
	}
	s.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	for _, id := range ids {
		rec, err := s.Get(id)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // deleted concurrently
			}
			return err
		}
		if err := fn(id, rec); err != nil {
			return err
		}
	}
	return nil
}

// CheckPlacement verifies the physical invariant relocations must
// preserve: every directory entry reads back from its recorded location,
// and the total number of live slots across all segment pages equals the
// directory size — i.e. every object is readable from exactly one
// location, with no stale duplicate left behind by a record that outgrew
// its page.
// Intended for tests and the sim harness's quiescent checks; it takes
// every segment latch shared, so call it only when writers are idle.
func (s *Store) CheckPlacement() error {
	s.mu.RLock()
	segIDs := make([]SegmentID, 0, len(s.segs))
	for id := range s.segs {
		segIDs = append(segIDs, id)
	}
	s.mu.RUnlock()
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	var liveSlots int
	for _, sgid := range segIDs {
		s.mu.RLock()
		latch := s.latches[sgid]
		sg := s.segs[sgid]
		pages := append([]PageID(nil), sg.Pages...)
		s.mu.RUnlock()
		latch.RLock()
		for _, pg := range pages {
			p, err := s.pool.Fetch(pg)
			if err != nil {
				latch.RUnlock()
				return fmt.Errorf("storage: checkplacement: segment %d page %d: %w", sgid, pg, err)
			}
			liveSlots += p.NumRecords()
			s.pool.Unpin(pg, false)
		}
		latch.RUnlock()
	}
	s.mu.RLock()
	ids := make([]uid.UID, 0, len(s.dir))
	for id := range s.dir {
		ids = append(ids, id)
	}
	dirLen := len(s.dir)
	s.mu.RUnlock()
	if liveSlots != dirLen {
		return fmt.Errorf("storage: checkplacement: %d live slots but %d directory entries (stale duplicate or lost record)", liveSlots, dirLen)
	}
	for _, id := range ids {
		if _, err := s.Get(id); err != nil {
			return fmt.Errorf("storage: checkplacement: %v unreadable: %w", id, err)
		}
	}
	return nil
}

// meta is the serialized form of the store's directory and segment table.
type meta struct {
	NextSeg  SegmentID   `json:"next_seg"`
	Segments []segment   `json:"segments"`
	Objects  []metaEntry `json:"objects"`
}

type metaEntry struct {
	Class  uint32    `json:"c"`
	Serial uint64    `json:"s"`
	Seg    SegmentID `json:"g"`
	Page   PageID    `json:"p"`
	Slot   int       `json:"l"`
}

// SaveMeta serializes the segment table and object directory. Combined
// with BufferPool.FlushAll this checkpoints the store.
func (s *Store) SaveMeta(w io.Writer) error {
	s.mu.RLock()
	m := meta{NextSeg: s.nextSeg}
	for _, sg := range s.segs {
		m.Segments = append(m.Segments, *sg)
	}
	sort.Slice(m.Segments, func(i, j int) bool { return m.Segments[i].ID < m.Segments[j].ID })
	for id, rid := range s.dir {
		m.Objects = append(m.Objects, metaEntry{
			Class: uint32(id.Class), Serial: id.Serial,
			Seg: s.segOf[id], Page: rid.Page, Slot: rid.Slot,
		})
	}
	s.mu.RUnlock()
	sort.Slice(m.Objects, func(i, j int) bool {
		a, b := m.Objects[i], m.Objects[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Serial < b.Serial
	})
	return json.NewEncoder(w).Encode(&m)
}

// LoadMeta restores the segment table and directory saved by SaveMeta.
func (s *Store) LoadMeta(r io.Reader) error {
	var m meta
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return fmt.Errorf("storage: load meta: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeg = m.NextSeg
	s.segs = make(map[SegmentID]*segment, len(m.Segments))
	s.latches = make(map[SegmentID]*sync.RWMutex, len(m.Segments))
	s.segByName = make(map[string]SegmentID, len(m.Segments))
	for i := range m.Segments {
		sg := m.Segments[i]
		s.segs[sg.ID] = &sg
		s.latches[sg.ID] = &sync.RWMutex{}
		s.segByName[sg.Name] = sg.ID
	}
	s.dir = make(map[uid.UID]RID, len(m.Objects))
	s.segOf = make(map[uid.UID]SegmentID, len(m.Objects))
	for _, e := range m.Objects {
		id := uid.UID{Class: uid.ClassID(e.Class), Serial: e.Serial}
		s.dir[id] = RID{Page: e.Page, Slot: e.Slot}
		s.segOf[id] = e.Seg
	}
	return nil
}
