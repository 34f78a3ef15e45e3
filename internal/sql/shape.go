package sql

import (
	"strings"

	"repro/internal/types"
)

// Marker stands for a literal in a Shape's Key; the byte after it is the
// literal's kind (types.Kind). A text that holds the byte has no shape.
const Marker = 0

// Shape is one lexing pass over a statement text: Key is the text with
// each number and string literal replaced by Marker and its kind, Lits
// their values in text order; texts of one Key differ in those alone.
type Shape struct {
	Key  []byte
	Lits []types.Value
}

// Scan reads text into s. It reports false where text has no shape: it
// holds Marker, does not lex, or has a number out of range.
func (s *Shape) Scan(text string) bool {
	s.Key, s.Lits = s.Key[:0], s.Lits[:0]
	if strings.IndexByte(text, Marker) >= 0 {
		return false
	}
	l := lexer{src: text}
	for gap := 0; ; { // gap: where the text after the last literal starts
		t, err := l.next()
		switch {
		case err != nil:
			return false
		case t.kind == tokEOF:
			s.Key = append(s.Key, text[gap:]...)
			return true
		case t.kind == tokNumber || t.kind == tokString:
			v, ok := literalValue(t)
			if !ok {
				return false
			}
			s.Key = append(append(s.Key, text[gap:t.pos]...), Marker, byte(v.Kind))
			s.Lits = append(s.Lits, v)
			gap = l.pos
		}
	}
}

// Verb is the first word of a statement text, as written ("" where the
// text starts with something else).
func Verb(text string) string {
	l := lexer{src: text}
	if t, err := l.next(); err == nil && t.kind == tokIdent {
		return t.text
	}
	return ""
}

// ParseTemplate is Parse then ExtractParams (st the template, vals its
// values) for a text whose literals Scan read as lits. Where it lifts each
// of them once, as the value it decodes to, parameter i took lits[from[i]]
// — matched by the token the parser read it from, never by value — and any
// text of the same Key is st with its Lits bound so. A folded -5, a DATE
// '…', a literal left inline (a projection, LIMIT, IN subquery's, or one
// beside a `?`) leave from nil.
func ParseTemplate(text string, lits []types.Value) (st Statement, vals []types.Value, from []int, err error) {
	p := &parser{lits: map[*Literal]int{}}
	if st, err = p.parse(text); err != nil {
		return nil, nil, nil, err
	}
	c := extract(st)
	vals, _ = c.finish()
	if len(lits) == 0 || len(c.lits) != len(lits) {
		return st, vals, nil, nil
	}
	ordinal, n := make([]int, len(p.toks)), 0 // token -> its index in lits
	for i, t := range p.toks {
		if ordinal[i] = n; t.kind == tokNumber || t.kind == tokString {
			n++
		}
	}
	// Each literal is its own token and lifted at most once, so with as
	// many lifted as the text holds, from is a permutation.
	from = make([]int, len(vals))
	for i, lit := range c.lits {
		tok, ok := p.lits[lit]
		if !ok || ordinal[tok] >= len(lits) || lits[ordinal[tok]] != vals[i] {
			return st, vals, nil, nil
		}
		from[i] = ordinal[tok]
	}
	return st, vals, from, nil
}
