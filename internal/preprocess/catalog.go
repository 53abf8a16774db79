// Package preprocess implements the data-preprocessing half of the
// framework (Figure 1 of the paper): the event categorizer — a hierarchical
// classification of raw RAS records into 10 facility-level categories and
// 219 low-level event types, 69 of them fatal (Table 3) — and the event
// filter, which removes redundant records by temporal compression at a
// single location and spatial compression across locations (Table 4).
package preprocess

import (
	"fmt"

	"repro/internal/raslog"
)

// Class is one low-level event type in the catalog. The pair
// (Facility, Entry) identifies a class; ID is its dense index.
type Class struct {
	ID       int
	Facility raslog.Facility
	Severity raslog.Severity // recorded severity in the log
	Entry    string          // canonical entry-data text
	// Fatal is the *curated* fatal flag: whether the event truly leads to a
	// system/application crash. It usually agrees with Severity.IsFatal(),
	// except for Misleading classes.
	Fatal bool
	// Misleading marks classes whose recorded severity is FATAL/FAILURE but
	// which sysadmins identified as not truly fatal ("fake" fatal events,
	// Oliner & Stearley); the curated list excludes them.
	Misleading bool
}

// facilitySpec describes how many fatal and non-fatal classes a facility
// contributes (the two count columns of Table 3) and seed entry texts.
type facilitySpec struct {
	fac             raslog.Facility
	fatal, nonFatal int
	fatalSeeds      []string
	nonFatalSeeds   []string
	misleadingAmong int // how many of the non-fatal classes carry FATAL severity
}

// table3 reproduces the per-facility class counts of Table 3:
// 69 fatal and 150 non-fatal classes, 219 in total.
var table3 = []facilitySpec{
	{
		fac: raslog.App, fatal: 10, nonFatal: 7,
		fatalSeeds: []string{
			"load program failure", "function call failure",
			"application segmentation fault", "assertion failure in application",
			"mpi abort called", "application signal kill",
		},
		nonFatalSeeds: []string{
			"application start info", "application exit info",
			"stdout stream attached", "job step begin",
		},
	},
	{
		fac: raslog.BGLMaster, fatal: 2, nonFatal: 2,
		fatalSeeds:    []string{"bglmaster segmentation failure", "bglmaster crashed"},
		nonFatalSeeds: []string{"bglmaster restart info", "bglmaster heartbeat info"},
	},
	{
		fac: raslog.CMCS, fatal: 0, nonFatal: 4,
		nonFatalSeeds: []string{
			"cmcs command info", "cmcs exit info",
			"cmcs polling agent started", "cmcs db connection info",
		},
	},
	{
		fac: raslog.Discovery, fatal: 0, nonFatal: 24,
		nonFatalSeeds: []string{
			"nodecard communication warning", "servicecard read error",
			"nodecard vpd read warning", "linkcard presence warning",
			"clock card status warning", "fanmodule discovery warning",
		},
	},
	{
		fac: raslog.Hardware, fatal: 1, nonFatal: 12,
		fatalSeeds: []string{"midplane power module failure"},
		nonFatalSeeds: []string{
			"midplane service warning", "bulk power supply warning",
			"fan speed out of range", "temperature sensor warning",
		},
	},
	{
		fac: raslog.Kernel, fatal: 46, nonFatal: 90, misleadingAmong: 6,
		fatalSeeds: []string{
			"broadcast failure", "cache failure", "cpu failure",
			"node map file error", "uncorrectable torus error",
			"uncorrectable error detected in edram bank",
			"communication failure socket closed", "kernel panic",
			"data tlb error interrupt", "instruction cache parity error",
			"double hummer alignment exception", "floating point unavailable interrupt",
			"l3 ecc uncorrectable error", "memory parity error",
			"torus sender fifo parity error", "machine check dcr read timeout",
			"data storage interrupt", "external input interrupt lockup",
			"rts tree reception failure", "rts torus reception failure",
		},
		nonFatalSeeds: []string{
			"ddr correctable error summary", "machine check info",
			"ciod message ignored", "tree receiver correctable info",
			"instruction address breakpoint info", "l1 cache correctable scrub",
			"ido packet warning", "rts heartbeat info",
		},
	},
	{
		fac: raslog.LinkCard, fatal: 1, nonFatal: 0,
		fatalSeeds: []string{"linkcard failure"},
	},
	{
		fac: raslog.MMCS, fatal: 0, nonFatal: 5,
		nonFatalSeeds: []string{
			"control network mmcs error", "mmcs idle info",
			"mmcs boot block info", "mmcs command trace",
		},
	},
	{
		fac: raslog.Monitor, fatal: 9, nonFatal: 5, misleadingAmong: 2,
		fatalSeeds: []string{
			"node card temperature error", "service card power failure",
			"clock card failure", "fan module failure",
		},
		nonFatalSeeds: []string{
			"node card status info", "temperature reading info",
		},
	},
	{
		fac: raslog.ServNet, fatal: 0, nonFatal: 1,
		nonFatalSeeds: []string{"system operation error"},
	},
}

// Catalog is the complete set of event classes for a system. Build one
// with NewCatalog; it is immutable and safe for concurrent use thereafter.
type Catalog struct {
	classes []Class
	byKey   map[catKey]int
}

// catKey keys a class on its entry's vocabulary Sym (see raslog.Sym).
type catKey struct {
	entry raslog.Sym
	fac   raslog.Facility
}

// NewCatalog builds the standard Blue Gene/L catalog, reproducing the class
// counts of Table 3 (69 fatal, 150 non-fatal, 219 total). Seed entry texts
// are drawn from the paper's examples; the remainder are generated
// deterministically.
func NewCatalog() *Catalog {
	c := &Catalog{byKey: make(map[catKey]int, 256)}
	for _, spec := range table3 {
		// Fatal classes: alternate FATAL and FAILURE severities.
		for i, entry := range expandEntries(spec.fatalSeeds, spec.fatal, spec.fac, true) {
			sev := raslog.Fatal
			if i%2 == 1 {
				sev = raslog.Failure
			}
			c.add(Class{Facility: spec.fac, Severity: sev, Entry: entry, Fatal: true})
		}
		// Non-fatal classes: cycle the informational severities; the last
		// misleadingAmong of them carry a (false) FATAL severity.
		nonFatalSevs := []raslog.Severity{raslog.Info, raslog.Warning, raslog.Severe, raslog.Error}
		for i, entry := range expandEntries(spec.nonFatalSeeds, spec.nonFatal, spec.fac, false) {
			cl := Class{Facility: spec.fac, Entry: entry, Fatal: false}
			if i >= spec.nonFatal-spec.misleadingAmong {
				cl.Severity = raslog.Fatal
				cl.Misleading = true
			} else {
				cl.Severity = nonFatalSevs[i%len(nonFatalSevs)]
			}
			c.add(cl)
		}
	}
	return c
}

// expandEntries returns exactly n distinct entry texts for a facility,
// using the seeds first and generating the rest deterministically.
func expandEntries(seeds []string, n int, fac raslog.Facility, fatal bool) []string {
	out := make([]string, 0, n)
	for i := 0; i < n && i < len(seeds); i++ {
		out = append(out, seeds[i])
	}
	kind := "status condition"
	if fatal {
		kind = "failure condition"
	}
	for i := len(out); i < n; i++ {
		out = append(out, fmt.Sprintf("%s %s %02d",
			lower(fac.String()), kind, i-len(seeds)+1))
	}
	return out
}

func lower(s string) string {
	b := []byte(s)
	for i, ch := range b {
		if 'A' <= ch && ch <= 'Z' {
			b[i] = ch - 'A' + 'a'
		}
	}
	return string(b)
}

func (c *Catalog) add(cl Class) {
	cl.ID = len(c.classes)
	var entry raslog.Sym
	cl.Entry, entry = raslog.Intern(cl.Entry)
	key := catKey{entry, cl.Facility}
	if _, dup := c.byKey[key]; dup {
		panic(fmt.Sprintf("preprocess: duplicate catalog entry %v %q", cl.Facility, cl.Entry))
	}
	c.byKey[key] = cl.ID
	c.classes = append(c.classes, cl)
}

// Len returns the number of classes (219 for the standard catalog).
func (c *Catalog) Len() int { return len(c.classes) }

// Class returns the class with the given dense ID. It panics on an
// out-of-range ID; use Lookup for fallible queries.
func (c *Catalog) Class(id int) Class { return c.classes[id] }

// Classes returns all classes in ID order. The slice is shared; treat it
// as read-only.
func (c *Catalog) Classes() []Class { return c.classes }

// Lookup finds the class for a (facility, entry-data) pair, the entry
// named by its vocabulary Sym (raslog.Event.Ent).
func (c *Catalog) Lookup(fac raslog.Facility, entry raslog.Sym) (Class, bool) {
	id, ok := c.byKey[catKey{entry, fac}]
	if !ok {
		return Class{}, false
	}
	return c.classes[id], true
}

// FatalIDs returns the IDs of all curated-fatal classes (69 in the
// standard catalog).
func (c *Catalog) FatalIDs() []int {
	var ids []int
	for _, cl := range c.classes {
		if cl.Fatal {
			ids = append(ids, cl.ID)
		}
	}
	return ids
}

// FacilityCounts is one row of Table 3.
type FacilityCounts struct {
	Facility raslog.Facility
	Fatal    int
	NonFatal int
}

// CountsByFacility returns the Table 3 rows in facility order.
func (c *Catalog) CountsByFacility() []FacilityCounts {
	rows := make([]FacilityCounts, raslog.NumFacilities)
	for i := range rows {
		rows[i].Facility = raslog.Facility(i)
	}
	for _, cl := range c.classes {
		if cl.Fatal {
			rows[cl.Facility].Fatal++
		} else {
			rows[cl.Facility].NonFatal++
		}
	}
	return rows
}
