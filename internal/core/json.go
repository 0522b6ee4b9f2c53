package core

import (
	"encoding/json"
	"fmt"
)

// Counts marshals as label-keyed maps (the figure labels, e.g. "memory
// data", "pending release") rather than positional arrays, so JSON
// documents stay readable and robust to taxonomy reordering. Zero buckets
// are omitted; unmarshaling restores them as zeros, so the round trip is
// exact.

// countsJSON is the wire form of Counts.
type countsJSON struct {
	Cycles     map[string]uint64 `json:"cycles,omitempty"`
	MemData    map[string]uint64 `json:"memData,omitempty"`
	MemStruct  map[string]uint64 `json:"memStruct,omitempty"`
	CompData   map[string]uint64 `json:"compData,omitempty"`
	CompStruct map[string]uint64 `json:"compStruct,omitempty"`
}

// MarshalJSON encodes the profile as labeled maps, omitting zero buckets.
func (c Counts) MarshalJSON() ([]byte, error) {
	w := countsJSON{
		Cycles:     labelMap(c.Cycles[:], func(i int) string { return StallKind(i).String() }),
		MemData:    labelMap(c.MemData[:], func(i int) string { return DataWhere(i).String() }),
		MemStruct:  labelMap(c.MemStruct[:], func(i int) string { return StructCause(i).String() }),
		CompData:   labelMap(c.CompData[:], func(i int) string { return CompUnit(i).String() }),
		CompStruct: labelMap(c.CompStruct[:], func(i int) string { return CompUnit(i).String() }),
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes labeled maps back into the positional arrays,
// rejecting labels that name no bucket.
func (c *Counts) UnmarshalJSON(data []byte) error {
	var w countsJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*c = Counts{}
	if err := unlabelMap(c.Cycles[:], w.Cycles, "stall kind", func(i int) string { return StallKind(i).String() }); err != nil {
		return err
	}
	if err := unlabelMap(c.MemData[:], w.MemData, "data-stall location", func(i int) string { return DataWhere(i).String() }); err != nil {
		return err
	}
	if err := unlabelMap(c.MemStruct[:], w.MemStruct, "structural cause", func(i int) string { return StructCause(i).String() }); err != nil {
		return err
	}
	if err := unlabelMap(c.CompData[:], w.CompData, "compute unit", func(i int) string { return CompUnit(i).String() }); err != nil {
		return err
	}
	return unlabelMap(c.CompStruct[:], w.CompStruct, "compute unit", func(i int) string { return CompUnit(i).String() })
}

// labelMap turns a positional bucket array into a label-keyed map of its
// nonzero entries (nil if all zero, which omitempty then drops).
func labelMap(vals []uint64, label func(i int) string) map[string]uint64 {
	var m map[string]uint64
	for i, v := range vals {
		if v == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]uint64)
		}
		m[label(i)] = v
	}
	return m
}

// unlabelMap writes a label-keyed map back into a positional array.
func unlabelMap(dst []uint64, src map[string]uint64, what string, label func(i int) string) error {
	for k, v := range src {
		idx := -1
		for i := range dst {
			if label(i) == k {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("core: unknown %s %q", what, k)
		}
		dst[idx] = v
	}
	return nil
}
