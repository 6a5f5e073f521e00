package ppip

// RefBuild exposes the serial reference fit to the cache tests, which
// live in package ppip_test because they build engines.
var RefBuild = refBuild

// SwapTableBuilder empties the table cache and makes build fit its
// entries from now on. The returned function empties the cache again and
// puts Build back.
func SwapTableBuilder(build func(func(float64) float64, Scheme, uint) (*Table, error)) (restore func()) {
	resetTableCache()
	buildTable = build
	return func() {
		resetTableCache()
		buildTable = Build
	}
}

func resetTableCache() {
	tableCache.Lock()
	tableCache.m = make(map[tableKey]*cachedTable)
	tableCache.Unlock()
}
