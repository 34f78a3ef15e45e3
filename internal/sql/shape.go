package sql

import (
	"strings"

	"repro/internal/types"
)

// Marker stands for a literal in a Shape's Key; the byte after it is the
// literal's kind (types.Kind). A text that holds the byte has no shape.
const Marker = 0

// Shape is one lexing pass over a statement text: Key is the text with
// each number, string and DATE '…' literal replaced by Marker and its
// kind, Lits their values in text order; texts of one Key differ in those
// alone. NULL, TRUE and FALSE are words, and stay in the Key.
type Shape struct {
	Key  []byte
	Lits []types.Value
}

// Scan reads text into s. It reports false where text has no shape: it
// holds Marker, does not lex, or has a number out of range or a DATE
// '…' that is not a date.
func (s *Shape) Scan(text string) bool {
	s.Key, s.Lits = s.Key[:0], s.Lits[:0]
	if strings.IndexByte(text, Marker) >= 0 {
		return false
	}
	l := lexer{src: text}
	for gap := 0; ; { // gap: where the text after the last literal starts
		t, err := l.next()
		if err != nil {
			return false
		}
		start, v, ok := t.pos, types.Value{}, true
		switch {
		case t.kind == tokEOF:
			s.Key = append(s.Key, text[gap:]...)
			return true
		case t.kind == tokNumber || t.kind == tokString:
			v, ok = literalValue(t)
		case t.kind == tokIdent && strings.EqualFold(t.text, "DATE"):
			// A string after DATE is one date literal, as the parser
			// reads it; anything else is read again as itself.
			at := l.pos
			if t, err = l.next(); err != nil || t.kind != tokString {
				l.pos = at
				continue
			}
			v, ok = dateValue(t.text)
		default:
			continue
		}
		if !ok {
			return false
		}
		s.Key = append(append(s.Key, text[gap:start]...), Marker, byte(v.Kind))
		s.Lits = append(s.Lits, v)
		gap = l.pos
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
// text of the same Key is st with its Lits bound so. A folded -5, a TRUE,
// a literal left inline (a projection, LIMIT, IN subquery's, or one beside
// a `?`) leave from nil.
func ParseTemplate(text string, lits []types.Value) (st Statement, vals []types.Value, from []int, err error) {
	p := &parser{noting: true}
	if st, err = p.parse(text); err != nil {
		return nil, nil, nil, err
	}
	c := extract(st)
	vals, _ = c.finish()
	if len(lits) == 0 || len(c.slots) != len(lits) {
		return st, vals, nil, nil
	}
	ordinal, n := make([]int, len(p.toks)), 0 // token -> its index in lits
	for i, t := range p.toks {
		if ordinal[i] = n; t.kind == tokNumber || t.kind == tokString {
			n++
		}
	}
	// The lifted literals are a subsequence of those noted, as the walk
	// follows the text. Each literal is its own token and lifted at most
	// once, so with as many lifted as the text holds, from is a
	// permutation.
	from = make([]int, len(vals))
	k := 0
	for i, s := range c.slots {
		for k < len(p.lits) && p.lits[k].lit != s.Lit {
			k++
		}
		if k == len(p.lits) {
			return st, vals, nil, nil
		}
		tok := p.lits[k].tok
		if ordinal[tok] >= len(lits) || lits[ordinal[tok]] != vals[i] {
			return st, vals, nil, nil
		}
		from[i], k = ordinal[tok], k+1
	}
	return st, vals, from, nil
}
