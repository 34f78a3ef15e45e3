package core

import (
	"fmt"
	"sort"
	"testing"
)

// TestInSubqueriesTenantScoped holds an IN subquery in every position a
// statement has to the reference: under CAST, IS NULL and inside an IN
// list; in a projection, JOIN … ON, GROUP BY, HAVING and ORDER BY; and in
// UPDATE SET and WHERE and DELETE WHERE. Every subquery reads Account,
// which another tenant's rows would answer differently: tenant 42 holds
// 'Big', a NULL name and a 'Gump' of its own, tenant 17 none of those.
func TestInSubqueriesTenantScoped(t *testing.T) {
	const big = "(SELECT Aid FROM Account WHERE Name = 'Big')" // tenant 17: {}
	const nul = "(SELECT Name FROM Account WHERE Aid = 3)"     // tenant 17: {}
	const gump = "(SELECT Name FROM Account WHERE Aid = 4)"    // tenant 17: {}
	schema := paperSchema()
	dbs := map[string]logicalDB{"reference": newPlainTenants(t, schema, paperTenants())}
	for name, m := range allLayouts(t, schema) {
		dbs[name] = m
	}
	dbs["basic"] = basicFor(t, schema, paperTenants())
	var names []string
	for name := range dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	for name, m := range dbs {
		for _, s := range []struct {
			tenant int64
			q      string
		}{
			{17, "INSERT INTO Account (Aid, Name) VALUES (1, 'Acme'), (2, 'Gump')"},
			{35, "INSERT INTO Account (Aid, Name) VALUES (1, 'Ball')"},
			{42, "INSERT INTO Account (Aid, Name) VALUES (1, 'Big'), (3, NULL), (4, 'Gump')"},
		} {
			if _, err := m.Exec(s.tenant, s.q); err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
		}
	}

	queries := []string{
		"SELECT Aid FROM Account WHERE CAST(Aid IN " + big + " AS INT) = 1",
		"SELECT Aid FROM Account WHERE (Name IN " + nul + ") IS NULL",
		"SELECT Aid FROM Account WHERE 1 IN (CAST(Aid IN " + big + " AS INT), 7)",
		"SELECT Aid, Aid IN " + big + " FROM Account",
		"SELECT a.Aid FROM Account a LEFT JOIN Account b ON b.Aid = a.Aid AND b.Aid IN " + big + " WHERE b.Aid IS NOT NULL",
		"SELECT Name IN " + gump + ", COUNT(*) FROM Account GROUP BY Name IN " + gump,
		"SELECT Name, COUNT(*) FROM Account GROUP BY Name HAVING Name IN " + gump,
		"SELECT Aid FROM Account ORDER BY Aid IN " + big + " DESC, Aid DESC LIMIT 1",
	}
	writes := []string{
		"UPDATE Account SET Name = CAST(Aid IN " + big + " AS VARCHAR(10)) WHERE Aid = 1",
		"UPDATE Account SET Name = 'w' WHERE CAST(Aid IN " + big + " AS INT) = 1",
		"DELETE FROM Account WHERE CAST(Name IN " + gump + " AS INT) = 1",
	}
	answer := func(m logicalDB, q string) string {
		rows, err := m.Query(17, q)
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(sortedRows(rows))
	}
	ref := dbs["reference"]
	for _, q := range queries {
		want := answer(ref, q)
		for _, name := range names {
			if got := answer(dbs[name], q); got != want {
				t.Errorf("%s: %q\n got  %s\n want %s", name, q, got, want)
			}
		}
	}
	const state = "SELECT Aid, Name FROM Account"
	for _, w := range writes {
		res, err := ref.Exec(17, w)
		if err != nil {
			t.Fatalf("reference: %q: %v", w, err)
		}
		want := fmt.Sprint(res.RowsAffected, answer(ref, state))
		for _, name := range names {
			m := dbs[name]
			if m == ref {
				continue
			}
			got := "error"
			if res, err := m.Exec(17, w); err == nil {
				got = fmt.Sprint(res.RowsAffected)
			}
			if got += answer(m, state); got != want {
				t.Errorf("%s: %q: affected and then holds %s, want %s", name, w, got, want)
			}
		}
	}
}
