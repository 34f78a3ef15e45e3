package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output. Keywords are not distinguished
// from identifiers here — the paper's generic structures use column
// names like Table, Chunk, and Row, so keywords must stay contextual.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // punctuation and operators
	tokParam  // ?
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return "'" + t.text + "'"
	default:
		return t.text
	}
}

type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, pos: l.pos}, nil

scan:
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isIdentStart(rune(c)):
		for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case c >= '0' && c <= '9':
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == '.' && !seenDot {
				seenDot = true
				l.pos++
				continue
			}
			if ch < '0' || ch > '9' {
				break
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		for l.pos++; ; l.pos++ {
			if l.pos >= len(l.src) {
				return token{}, l.errf(start, "unterminated string literal")
			}
			if l.src[l.pos] == '\'' {
				if l.pos+1 == len(l.src) || l.src[l.pos+1] != '\'' {
					break
				}
				l.pos++ // a doubled quote
			}
		}
		l.pos++
		// A substring of the source unless a doubled quote is undone.
		return token{kind: tokString, text: strings.ReplaceAll(l.src[start+1:l.pos-1], "''", "'"), pos: start}, nil
	case c == '?':
		l.pos++
		return token{kind: tokParam, text: "?", pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokSymbol, text: "<>", pos: start}, nil
		}
		return token{}, l.errf(start, "unexpected '!'")
	case strings.ContainsRune("(),.*=+-/;", rune(c)):
		l.pos++
		return token{kind: tokSymbol, text: l.src[start:l.pos], pos: start}, nil
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexAll tokenizes the whole input (the parser wants lookahead).
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
