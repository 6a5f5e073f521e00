package core

import (
	"fmt"

	"anton/internal/torus"
)

// Measured communication accounting for sharded runs. The analytic
// CommReport models what the decomposition *should* send; the sharded
// pipeline additionally measures what its transport actually sent. The
// per-exchange message lists are static between migrations, so the
// traffic is tallied lazily: the driver counts exchanges as they happen
// and folds (list x multiplier) into the torus accounting at migrations,
// restores, and report time. Hop counts and link occupancy come from
// routing the real message set over internal/torus — measured message
// counts, modeled wire behavior.

// Wire sizes, matching the analytic model in Comm(): three fixed-point
// coordinates or three compressed force components per atom, 8 bytes per
// mesh cell contribution, and an atom migration record (position,
// velocity, ids).
const (
	shardPosBytes     = 12
	shardForceBytes   = 12
	shardMeshCellB    = 8
	shardMigrationMsg = 36
)

// commPair is one (source, destination) message with its payload size.
type commPair struct {
	src, dst int
	bytes    int
}

// measuredComm accumulates the sharded transport's traffic.
type measuredComm struct {
	netImport  *torus.Network
	netExport  *torus.Network
	netMesh    *torus.Network
	netMigrate *torus.Network

	// Static per-exchange message lists, rebuilt with the views.
	importPairs []commPair
	exportPairs []commPair // short-range section sizes (refresh: twice that)

	// Exchange counts not yet folded into the torus accounting.
	pendingEvals   int
	pendingRefresh int

	evals, refreshes int64
	importMsgs       int64
	exportMsgs       int64
	meshMsgs         int64
	migrationMsgs    int64
}

func newMeasuredComm(dims [3]int) (*measuredComm, error) {
	c := &measuredComm{}
	for _, n := range []**torus.Network{&c.netImport, &c.netExport, &c.netMesh, &c.netMigrate} {
		net, err := torus.New(dims)
		if err != nil {
			return nil, err
		}
		*n = net
	}
	return c, nil
}

// rebuildStatic regenerates the per-exchange message lists from the
// current shard views. Must run after rebuildViews, and only after fold()
// has settled traffic accumulated under the previous views.
func (c *measuredComm) rebuildStatic(e *Engine) {
	c.importPairs = c.importPairs[:0]
	c.exportPairs = c.exportPairs[:0]
	for _, st := range e.shards {
		for _, dst := range st.expDsts {
			c.importPairs = append(c.importPairs,
				commPair{int(st.id), int(dst), len(st.owned) * shardPosBytes})
		}
		for di, dst := range st.impSrcs {
			c.exportPairs = append(c.exportPairs,
				commPair{int(st.id), int(dst), len(st.footSlots[di]) * shardForceBytes})
		}
	}
}

// noteImport records one position exchange (one per force evaluation).
func (c *measuredComm) noteImport() {
	c.pendingEvals++
	c.evals++
	c.importMsgs += int64(len(c.importPairs))
}

// noteExport records one force-export exchange: one frame per export
// link, twice the bytes on refresh steps (the long-range section).
func (c *measuredComm) noteExport(refresh bool) {
	if refresh {
		c.pendingRefresh++
		c.refreshes++
	}
	c.exportMsgs += int64(len(c.exportPairs))
}

// noteMesh records one mesh contribution message: cells nonzero cells
// from src merged into dst's region of the mesh.
func (c *measuredComm) noteMesh(src, dst, cells int) {
	c.netMesh.SendN(src, dst, cells*shardMeshCellB, 1)
	c.meshMsgs++
}

// noteMigration records one atom changing home box.
func (c *measuredComm) noteMigration(src, dst int) {
	c.netMigrate.SendN(src, dst, shardMigrationMsg, 1)
	c.migrationMsgs++
}

// fold settles the pending exchange counts into the torus accounting
// under the current (still valid) message lists.
func (c *measuredComm) fold() {
	for _, p := range c.importPairs {
		c.netImport.SendN(p.src, p.dst, p.bytes, c.pendingEvals)
	}
	for _, p := range c.exportPairs {
		c.netExport.SendN(p.src, p.dst, p.bytes, c.pendingEvals-c.pendingRefresh)
		c.netExport.SendN(p.src, p.dst, 2*p.bytes, c.pendingRefresh)
	}
	c.pendingEvals, c.pendingRefresh = 0, 0
}

// MeasuredComm is the measured-traffic section of a sharded CommReport:
// counts of messages the transport actually carried, with hop counts and
// link occupancy from routing that message set over the torus model.
type MeasuredComm struct {
	Evals     int64 // force evaluations measured
	Refreshes int64 // long-range refreshes among them

	ImportMsgs    int64 // position import frames, one per link per evaluation
	ExportMsgs    int64 // force export frames, one per link per evaluation (refresh: with long-range section)
	MeshMsgs      int64 // mesh contribution messages
	MigrationMsgs int64 // atoms that changed home box

	Import    torus.Stats
	Export    torus.Stats
	Mesh      torus.Stats
	Migration torus.Stats

	// Wire compression of the shard frames, per traffic class: raw is the
	// payload the torus model routes, wire is the frame bytes actually
	// sent (equal for positions, varint packed for forces). Deterministic
	// for a fixed config — frame sizes are a function of the trajectory
	// alone.
	PosRawBytes    int64 `json:"pos_raw_bytes"`
	PosWireBytes   int64 `json:"pos_wire_bytes"`
	ForceRawBytes  int64 `json:"force_raw_bytes"`
	ForceWireBytes int64 `json:"force_wire_bytes"`
}

// report folds and snapshots the cumulative measured traffic, with the
// wire bytes of the transport tallies t.
func (c *measuredComm) report(t TransportStats) *MeasuredComm {
	c.fold()
	return &MeasuredComm{
		Evals:         c.evals,
		Refreshes:     c.refreshes,
		ImportMsgs:    c.importMsgs,
		ExportMsgs:    c.exportMsgs,
		MeshMsgs:      c.meshMsgs,
		MigrationMsgs: c.migrationMsgs,
		Import:        c.netImport.Collect(),
		Export:        c.netExport.Collect(),
		Mesh:          c.netMesh.Collect(),
		Migration:     c.netMigrate.Collect(),

		PosRawBytes:    t.PosRawBytes,
		PosWireBytes:   t.PosWireBytes,
		ForceRawBytes:  t.ForceRawBytes,
		ForceWireBytes: t.ForceWireBytes,
	}
}

// String formats the measured section (appended to CommReport.String).
func (m *MeasuredComm) String() string {
	if m.Evals == 0 {
		return "  measured: no force evaluations yet\n"
	}
	f := func(name string, msgs int64, st torus.Stats) string {
		return fmt.Sprintf("    %-14s %8d msgs (%6.1f/eval)  %10d B  max hops %d  busiest link %d B\n",
			name, msgs, float64(msgs)/float64(m.Evals), st.PayloadBytes, st.MaxHops, st.BusiestChannelBytes)
	}
	// Position and force messages are frames, one per link; the analytic
	// section above counts atom records, which the raw bytes give.
	records := func(raw, per int64, note string) string {
		return fmt.Sprintf("      atom records %10.1f/eval (raw bytes / %d%s)\n", float64(raw/per)/float64(m.Evals), per, note)
	}
	out := fmt.Sprintf("  measured transport over %d evals (%d refreshes; pos and force msgs are frames, one per link):\n",
		m.Evals, m.Refreshes)
	out += f("pos import:", m.ImportMsgs, m.Import)
	out += records(m.PosRawBytes, posRecord, "")
	out += f("force export:", m.ExportMsgs, m.Export)
	out += records(m.ForceRawBytes, forceRawBytes(1), ", long-range sections included")
	out += f("mesh merge:", m.MeshMsgs, m.Mesh)
	out += f("migration:", m.MigrationMsgs, m.Migration)
	if m.PosRawBytes > 0 || m.ForceRawBytes > 0 {
		ratio := func(raw, wire int64) float64 {
			if wire == 0 {
				return 0
			}
			return float64(raw) / float64(wire)
		}
		out += fmt.Sprintf("    wire compression: pos %d -> %d B (%.2fx), force %d -> %d B (%.2fx)\n",
			m.PosRawBytes, m.PosWireBytes, ratio(m.PosRawBytes, m.PosWireBytes),
			m.ForceRawBytes, m.ForceWireBytes, ratio(m.ForceRawBytes, m.ForceWireBytes))
	}
	return out
}
