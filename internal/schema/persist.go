package schema

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/uid"
)

// catalogState is the serialized catalog: class metaobjects, the deferred
// operation logs, and the counters.
type catalogState struct {
	NextID   uid.ClassID       `json:"next_id"`
	GlobalCC uint64            `json:"global_cc"`
	Classes  []Class           `json:"classes"`
	Logs     map[string]*OpLog `json:"logs,omitempty"`
}

// Save serializes the catalog.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	st := catalogState{NextID: c.nextID, GlobalCC: c.globalCC, Logs: map[string]*OpLog{}}
	for _, cl := range c.classes {
		st.Classes = append(st.Classes, *cl)
	}
	for name, log := range c.logs {
		if len(log.Entries) > 0 {
			cp := *log
			st.Logs[name] = &cp
		}
	}
	c.mu.RUnlock()
	sort.Slice(st.Classes, func(i, j int) bool { return st.Classes[i].ID < st.Classes[j].ID })
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&st)
}

// Load restores a catalog saved by Save, replacing the current contents.
func (c *Catalog) Load(r io.Reader) error {
	var st catalogState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("schema: load catalog: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	defer c.version.Add(1)
	c.nextID = st.NextID
	c.globalCC = st.GlobalCC
	c.classes = make(map[string]*Class, len(st.Classes))
	c.byID = make(map[uid.ClassID]*Class, len(st.Classes))
	for i := range st.Classes {
		cl := st.Classes[i]
		c.classes[cl.Name] = &cl
		c.byID[cl.ID] = &cl
		if cl.ID >= c.nextID {
			c.nextID = cl.ID + 1
		}
	}
	c.logs = make(map[string]*OpLog, len(st.Logs))
	for name, log := range st.Logs {
		c.logs[name] = log
	}
	return nil
}
