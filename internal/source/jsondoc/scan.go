package jsondoc

import (
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The byte-level half of the parser: white space, strings, numbers
// and literals, read from the window with the grammar and the error
// wording of encoding/json's scanner.

// nonSpace skips JSON white space and returns the next byte without
// consuming it, or -1 at the end of the input.
func (p *parser) nonSpace() (int, error) {
	w := &p.w
	for {
		for w.Pos < w.End {
			switch c := w.Buf[w.Pos]; c {
			case ' ', '\t', '\r', '\n':
				w.Pos++
			default:
				return int(c), nil
			}
		}
		if !w.Fill() {
			return -1, p.readErr()
		}
	}
}

// peek returns the next byte without consuming it, or -1 at the end
// of the input.
func (p *parser) peek() (int, error) {
	w := &p.w
	if w.Pos == w.End && !w.Fill() {
		return -1, p.readErr()
	}
	return int(w.Buf[w.Pos]), nil
}

// mustPeek is peek with the end of the input an error.
func (p *parser) mustPeek() (int, error) {
	c, err := p.peek()
	if err == nil && c < 0 {
		err = fmt.Errorf("jsondoc: JSON parse error: offset %d: %w", p.w.Offset(), io.ErrUnexpectedEOF)
	}
	return c, err
}

// readErr wraps the reader's error, if the window stopped on one.
func (p *parser) readErr() error {
	if err := p.w.Err(); err != nil {
		return fmt.Errorf("jsondoc: JSON parse error: %w", err)
	}
	return nil
}

func (p *parser) syntaxError(msg string) error {
	return fmt.Errorf("jsondoc: JSON parse error: offset %d: %s", p.w.Offset(), msg)
}

// unexpected is the error for byte c, or the end of the input when c
// is -1, where context says what was expected.
func (p *parser) unexpected(c int, context string) error {
	if c < 0 {
		return fmt.Errorf("jsondoc: JSON parse error: offset %d: %w", p.w.Offset(), io.ErrUnexpectedEOF)
	}
	return p.syntaxError("invalid character " + quoteChar(byte(c)) + " " + context)
}

// quoteChar formats c as encoding/json's error messages do.
func quoteChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// strPlain marks the string bytes that need no decoding.
var strPlain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str reads a string whose opening quote has been consumed and
// returns its decoded bytes, valid until the next read.
func (p *parser) str() ([]byte, error) {
	w := &p.w
	w.Mark = w.Pos
	defer func() { w.Mark = -1 }()
	escaped, high := false, false
	for {
		for w.Pos < w.End && strPlain[w.Buf[w.Pos]] {
			w.Pos++
		}
		c, err := p.mustPeek()
		if err != nil {
			return nil, err
		}
		switch {
		case c == '"':
			raw := w.Buf[w.Mark:w.Pos]
			w.Pos++
			if !escaped && (!high || utf8.Valid(raw)) {
				return raw, nil
			}
			p.unq = appendUnquoted(p.unq[:0], raw)
			return p.unq, nil
		case c == '\\':
			escaped = true
			w.Pos++
			if err := p.escape(); err != nil {
				return nil, err
			}
		case c < ' ':
			return nil, p.unexpected(c, "in string literal")
		default:
			high = true
			w.Pos++
		}
	}
}

// escape checks the escape sequence after a backslash.
func (p *parser) escape() error {
	c, err := p.mustPeek()
	if err != nil {
		return err
	}
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		p.w.Pos++
		return nil
	case 'u':
		p.w.Pos++
		for i := 0; i < 4; i++ {
			if c, err = p.mustPeek(); err != nil {
				return err
			}
			if hexVal(byte(c)) < 0 {
				return p.unexpected(c, `in \u hexadecimal character escape`)
			}
			p.w.Pos++
		}
		return nil
	}
	return p.unexpected(c, "in string escape code")
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// appendUnquoted appends the decoding of a string body s, checked by
// str, to dst as encoding/json decodes it: a valid surrogate pair
// becomes its rune, and a lone surrogate and each byte of invalid
// UTF-8 become U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\' && s[i+1] == 'u':
			r := u4(s[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					r2 = u4(s[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
		case c == '\\':
			dst = append(dst, unescaped[s[i+1]])
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

// unescaped maps the byte after a backslash to what it stands for.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// u4 decodes four hexadecimal digits.
func u4(s []byte) rune {
	return hexVal(s[0])<<12 | hexVal(s[1])<<8 | hexVal(s[2])<<4 | hexVal(s[3])
}

// number reads a number and returns its literal spelling.
func (p *parser) number() (string, error) {
	w := &p.w
	w.Mark = w.Pos
	defer func() { w.Mark = -1 }()
	c, _ := p.peek()
	if c == '-' {
		w.Pos++
		var err error
		if c, err = p.mustPeek(); err != nil {
			return "", err
		}
	}
	switch {
	case c == '0':
		w.Pos++
	case '1' <= c && c <= '9':
		if err := p.digits(); err != nil {
			return "", err
		}
	default:
		return "", p.unexpected(c, "in numeric literal")
	}
	c, err := p.peek()
	if err != nil {
		return "", err
	}
	if c == '.' {
		w.Pos++
		if c, err = p.mustPeek(); err != nil {
			return "", err
		}
		if c < '0' || c > '9' {
			return "", p.unexpected(c, "after decimal point in numeric literal")
		}
		if err := p.digits(); err != nil {
			return "", err
		}
		if c, err = p.peek(); err != nil {
			return "", err
		}
	}
	if c == 'e' || c == 'E' {
		w.Pos++
		if c, err = p.mustPeek(); err != nil {
			return "", err
		}
		if c == '+' || c == '-' {
			w.Pos++
			if c, err = p.mustPeek(); err != nil {
				return "", err
			}
		}
		if c < '0' || c > '9' {
			return "", p.unexpected(c, "in exponent of numeric literal")
		}
		if err := p.digits(); err != nil {
			return "", err
		}
	}
	return string(w.Buf[w.Mark:w.Pos]), nil
}

// digits consumes a run of decimal digits.
func (p *parser) digits() error {
	w := &p.w
	for {
		for w.Pos < w.End && '0' <= w.Buf[w.Pos] && w.Buf[w.Pos] <= '9' {
			w.Pos++
		}
		if w.Pos < w.End {
			return nil
		}
		if !w.Fill() {
			return p.readErr()
		}
	}
}

// literal consumes the literal lit (true, false or null).
func (p *parser) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		c, err := p.mustPeek()
		if err != nil {
			return err
		}
		if c != int(lit[i]) {
			return p.unexpected(c, fmt.Sprintf("in literal %s (expecting %s)", lit, quoteChar(lit[i])))
		}
		p.w.Pos++
	}
	return nil
}
