package core

import (
	"testing"

	"repro/internal/types"
)

// CheckAgainstLiterals lets the package's external tests, which can
// build the CRM testbed, hold its deck to checkAgainstLiterals.
func CheckAgainstLiterals(t *testing.T, m *Mapper, tenant int64, text string, params ...types.Value) {
	t.Helper()
	checkAgainstLiterals(t, m, tenant, text, params...)
}
