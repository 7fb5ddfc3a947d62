// Testdata for the modlit analyzer. It imports the real mapeq package,
// whose Module carries unexported cache fields no stand-in outside it
// could reproduce.
package modlituse

import "dinfomap/internal/mapeq"

func keyed(p, q float64) mapeq.Module {
	return mapeq.Module{SumPr: p, ExitPr: q, Members: 1} // want `mapeq.Module literal leaves the cached log terms zero`
}

func partial(q float64) mapeq.Module {
	return mapeq.Module{ExitPr: q} // want `build it with mapeq.NewModule`
}

func pointer(p float64) *mapeq.Module {
	return &mapeq.Module{SumPr: p} // want `mapeq.Module literal`
}

func elided(p float64) []mapeq.Module {
	return []mapeq.Module{
		{SumPr: p, Members: 1}, // want `mapeq.Module literal`
		{},
	}
}

// Alias of the real type: still a Module.
type alias = mapeq.Module

func viaAlias(p float64) alias {
	return alias{SumPr: p} // want `mapeq.Module literal`
}

// The empty literal is the exact zero module: allowed.
func empty() mapeq.Module {
	return mapeq.Module{}
}

// The constructor is the sanctioned way.
func constructed(p, q float64) mapeq.Module {
	return mapeq.NewModule(p, q, 1)
}

// A different struct that happens to be called Module is out of scope.
type Module struct{ SumPr float64 }

func local(p float64) Module {
	return Module{SumPr: p}
}
