package ppip

import (
	"fmt"
	"sync"
)

// On Anton the tables are fitted once, off-line, as part of system
// preparation. TableFor is the in-process form of that: every engine that
// asks for the same kernel, parameters, scheme and mantissa width shares
// one immutable table, fitted the first time it is asked for.

// KernelKind names one of the physical kernels of kernels.go.
type KernelKind uint8

const (
	ErfcForce      KernelKind = iota + 1 // ErfcForceFunc(Sigma, RCut, RMin)
	ErfcEnergy                           // ErfcEnergyFunc(Sigma, RCut, RMin)
	LJ12                                 // LJ12ForceFunc(RCut, RMin)
	LJ6                                  // LJ6ForceFunc(RCut, RMin)
	GaussianSpread                       // GaussianSpreadFunc(Sigma, RCut)
)

// Kernel is a physical kernel with every parameter its function reads:
// the identity of a cached table. Leave the fields the kind does not read
// zero; they are part of the key all the same.
type Kernel struct {
	Kind  KernelKind
	Sigma float64 // Ewald σ (erfc kinds) or spreading σ₁ (GaussianSpread)
	RCut  float64 // cutoff R, or r_spread for GaussianSpread
	RMin  float64 // clamp radius (erfc and LJ kinds)
}

// fn returns the kernel's function of x = (r/R)^2.
func (k Kernel) fn() (func(float64) float64, error) {
	switch k.Kind {
	case ErfcForce:
		return ErfcForceFunc(k.Sigma, k.RCut, k.RMin), nil
	case ErfcEnergy:
		return ErfcEnergyFunc(k.Sigma, k.RCut, k.RMin), nil
	case LJ12:
		return LJ12ForceFunc(k.RCut, k.RMin), nil
	case LJ6:
		return LJ6ForceFunc(k.RCut, k.RMin), nil
	case GaussianSpread:
		return GaussianSpreadFunc(k.Sigma, k.RCut), nil
	}
	return nil, fmt.Errorf("ppip: unknown kernel kind %d", k.Kind)
}

// tableKey identifies a cached table. The scheme enters as its printed
// form: %v prints each float64 in the shortest form that reads back to
// the same value, so distinct schemes print differently.
type tableKey struct {
	kernel       Kernel
	scheme       string
	mantissaBits uint
}

// cachedTable is one cache entry: the table (or the error) is set once,
// by whichever caller gets to the entry first; the rest wait for it.
type cachedTable struct {
	once sync.Once
	t    *Table
	err  error
}

// tableCache is the process-wide table cache. It is never evicted: an
// entry is one ~25 KB table per distinct physics parameter set.
var tableCache = struct {
	sync.Mutex
	m map[tableKey]*cachedTable
}{m: make(map[tableKey]*cachedTable)}

// buildTable fits a cache entry; a variable so tests can count fits and
// substitute the serial reference.
var buildTable = Build

// TableFor returns the shared table of kernel k on the given scheme and
// mantissa width, fitting it with Build on first use. Concurrent first
// callers of one key wait for a single fit. The table is immutable and
// safe for concurrent use; callers must not modify it.
func TableFor(k Kernel, scheme Scheme, mantissaBits uint) (*Table, error) {
	f, err := k.fn()
	if err != nil {
		return nil, err
	}
	key := tableKey{kernel: k, scheme: fmt.Sprint(scheme), mantissaBits: mantissaBits}
	tableCache.Lock()
	c := tableCache.m[key]
	if c == nil {
		c = new(cachedTable)
		tableCache.m[key] = c
	}
	tableCache.Unlock()
	c.once.Do(func() { c.t, c.err = buildTable(f, scheme, mantissaBits) })
	return c.t, c.err
}
