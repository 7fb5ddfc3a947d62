// Testdata for the modlit analyzer: a package named mapeq declares the
// Module type and is exempt, since its constructor is the one place a
// literal with fields is correct.
package mapeq

import "math"

// Module is the stand-in module with a cached log term.
type Module struct {
	SumPr, ExitPr float64
	Members       int
	plogQ         float64
}

// NewModule builds a module with its cache set.
func NewModule(sumPr, exitPr float64, members int) Module {
	return Module{SumPr: sumPr, ExitPr: exitPr, Members: members, plogQ: exitPr * math.Log2(exitPr)}
}
