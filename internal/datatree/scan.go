package datatree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"

	"discoverxfd/internal/window"
)

// xmlScanner is the tokenizer behind parseXML. It accepts exactly
// what encoding/xml's Decoder accepts in Strict mode and yields what
// its RawToken would, with three differences of form: comments,
// processing instructions and directives are checked and dropped
// instead of returned, character data is decoded straight into the
// shared text buffer, and names are interned once per parse. What it
// mirrors of encoding/xml:
//
//   - the five predefined entities and decimal and hexadecimal
//     character references, an unknown or unterminated one being an
//     error;
//   - "\r\n" and a lone "\r" in input read as "\n" (not one produced
//     by a character reference);
//   - the UTF-8 and XML Char-range check of every text and attribute
//     value, after entity expansion;
//   - the name rules of isName, and the split of a name at its only
//     colon into prefix and local part;
//   - "]]>" being an error in text, and "--" one inside a comment
//     unless it ends it;
//   - directives such as DOCTYPE, internal subset included, skipped
//     by the same quote, bracket-depth and comment rules;
//   - the rejection of a version other than 1.0 and of an encoding
//     other than UTF-8 in any <?xml ...?> instruction.
//
// Quirks kept on purpose, because encoding/xml has them: attributes
// may repeat, and need no space between them; a text character
// reference may produce "\r" or, for a surrogate, U+FFFD; an
// <?xml ...?> instruction is checked wherever it appears.
type xmlScanner struct {
	w     window.Reader
	names map[string]*qname
	// name is the tag just read by next.
	name *qname
	// attrs are the attributes of the start tag just read.
	attrs []xmlAttr
	// text is the character data of the open elements, appended to
	// by next when it is asked to keep a token's text.
	text []byte
	// needClose is set after an empty-element tag: the next token is
	// its end.
	needClose bool
}

// qname is one distinct element or attribute name of a parse, split
// as encoding/xml splits it: at its only colon, when both sides are
// non-empty, into space (the prefix) and local.
type qname struct {
	raw          string // as written
	space, local string
	// attr is the "@"+local label of the name as an attribute, made
	// on first use.
	attr string
}

func (q *qname) attrLabel() string {
	if q.attr == "" {
		q.attr = "@" + q.local
	}
	return q.attr
}

type xmlAttr struct {
	name  *qname
	value string
}

// maxInterned bounds the name table. Past it, names are still
// checked but not kept, so a stream of ever new names cannot grow the
// table with the input.
const maxInterned = 1 << 14

type tokenKind uint8

const (
	tokEOF   tokenKind = iota
	tokStart           // a start tag: name, attrs, and needClose for <a/>
	tokEnd             // an end tag: name
	tokText            // character data or a CDATA section
)

func newXMLScanner(r io.Reader) *xmlScanner {
	s := &xmlScanner{names: make(map[string]*qname)}
	s.w.Init(r)
	return s
}

// next reads the next token. Character data is appended to s.text
// when keep is set and otherwise only checked. top, the name of the
// innermost open element or nil, spares the name table a lookup for
// the end tag that closes it. At the end of the input next returns
// tokEOF with a nil error, or with the reader's.
func (s *xmlScanner) next(keep bool, top *qname) (tokenKind, error) {
	if s.needClose {
		s.needClose = false
		return tokEnd, nil
	}
	w := &s.w
	for {
		if w.Pos == w.End && !w.Fill() {
			return tokEOF, w.Err()
		}
		if w.Buf[w.Pos] != '<' {
			return tokText, s.charData(keep, -1, false)
		}
		w.Pos++
		b, err := s.mustgetc()
		if err != nil {
			return tokEOF, err
		}
		switch b {
		case '/':
			return tokEnd, s.endTag(top)
		case '?':
			err = s.procInst()
		case '!':
			var cdata bool
			if cdata, err = s.bang(); err == nil && cdata {
				return tokText, s.charData(keep, -1, true)
			}
		default:
			w.Pos--
			return tokStart, s.startTag()
		}
		if err != nil {
			return tokEOF, err
		}
	}
}

// mustgetc reads one byte, the end of the input being an error.
func (s *xmlScanner) mustgetc() (byte, error) {
	w := &s.w
	if w.Pos == w.End && !w.Fill() {
		return 0, s.eofErr()
	}
	w.Pos++
	return w.Buf[w.Pos-1], nil
}

// eofErr is the error for input that stops inside a token.
func (s *xmlScanner) eofErr() error {
	if err := s.w.Err(); err != nil {
		return err
	}
	return s.syntaxError("unexpected EOF")
}

func (s *xmlScanner) syntaxError(msg string) error {
	return &xml.SyntaxError{Msg: msg, Line: s.w.Line()}
}

// space skips XML white space.
func (s *xmlScanner) space() {
	w := &s.w
	for {
		for w.Pos < w.End {
			switch w.Buf[w.Pos] {
			case ' ', '\r', '\n', '\t':
				w.Pos++
			default:
				return
			}
		}
		if !w.Fill() {
			return
		}
	}
}

// readName reads the bytes of a name, up to the first ASCII byte no
// name may hold, and returns them, empty if there are none. The slice
// is valid until the window is next filled.
func (s *xmlScanner) readName() ([]byte, error) {
	w := &s.w
	outer := w.Mark
	if outer < 0 {
		w.Mark = w.Pos
	}
	off := w.Pos - w.Mark
	for {
		for w.Pos < w.End && nameByte[w.Buf[w.Pos]] {
			w.Pos++
		}
		if w.Pos < w.End {
			break
		}
		if !w.Fill() {
			w.Mark = outer
			return nil, s.eofErr()
		}
	}
	name := w.Buf[w.Mark+off : w.Pos]
	if outer < 0 {
		w.Mark = -1
	}
	return name, nil
}

// qname reads an element or attribute name; what completes the
// message "expected ..." when there is none. A name equal to hint is
// returned as hint.
func (s *xmlScanner) qname(what string, hint *qname) (*qname, error) {
	raw, err := s.readName()
	if err != nil {
		return nil, err
	}
	if hint != nil && string(raw) == hint.raw {
		return hint, nil
	}
	if q := s.names[string(raw)]; q != nil {
		return q, nil
	}
	if len(raw) == 0 {
		return nil, s.syntaxError("expected " + what)
	}
	if !isName(raw) {
		return nil, s.syntaxError("invalid XML name: " + string(raw))
	}
	if bytes.Count(raw, []byte{':'}) > 1 {
		return nil, s.syntaxError("expected " + what)
	}
	name := string(raw)
	q := &qname{raw: name, local: name}
	if i := strings.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		q.space, q.local = name[:i], name[i+1:]
	}
	if len(s.names) < maxInterned {
		s.names[name] = q
	}
	return q, nil
}

// startTag reads a start tag after its '<'.
func (s *xmlScanner) startTag() error {
	var err error
	if s.name, err = s.qname("element name after <", nil); err != nil {
		return err
	}
	s.attrs = s.attrs[:0]
	for {
		s.space()
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		switch b {
		case '/':
			if b, err = s.mustgetc(); err != nil {
				return err
			}
			if b != '>' {
				return s.syntaxError("expected /> in element")
			}
			s.needClose = true
			return nil
		case '>':
			return nil
		}
		s.w.Pos--
		a, err := s.qname("attribute name in element", nil)
		if err != nil {
			return err
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '=' {
			return s.syntaxError("attribute name without = in element")
		}
		s.space()
		if b, err = s.mustgetc(); err != nil {
			return err
		}
		if b != '"' && b != '\'' {
			return s.syntaxError("unquoted or missing attribute value in element")
		}
		start := len(s.text)
		if err := s.charData(true, int(b), false); err != nil {
			return err
		}
		s.attrs = append(s.attrs, xmlAttr{a, string(s.text[start:])})
		s.text = s.text[:start]
	}
}

// endTag reads an end tag after its "</"; top is next's.
func (s *xmlScanner) endTag(top *qname) error {
	var err error
	if s.name, err = s.qname("element name after </", top); err != nil {
		return err
	}
	s.space()
	b, err := s.mustgetc()
	if err != nil {
		return err
	}
	if b != '>' {
		return s.syntaxError("invalid characters between </" + s.name.local + " and >")
	}
	return nil
}

// procInst reads a processing instruction after its "<?". Only
// <?xml ...?> is looked into, for its version and encoding.
func (s *xmlScanner) procInst() error {
	target, err := s.readName()
	if err != nil {
		return err
	}
	if len(target) == 0 {
		return s.syntaxError("expected target name after <?")
	}
	if !isName(target) {
		return s.syntaxError("invalid XML name: " + string(target))
	}
	isXML := string(target) == "xml"
	s.space()
	w := &s.w
	if isXML { // keep the body in the window for its parameters
		w.Mark = w.Pos
		defer func() { w.Mark = -1 }()
	}
	var b0 byte
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	if !isXML {
		return nil
	}
	content := string(w.Buf[w.Mark : w.Pos-2])
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc)
	}
	return nil
}

// procInstParam returns the quoted value of param in the content of
// an <?xml ...?> instruction, found the way encoding/xml finds it, or
// "" if there is none.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang reads what follows "<!": a comment or a directive, which it
// skips, or the opening of a CDATA section, for which it reports
// true.
func (s *xmlScanner) bang() (cdata bool, err error) {
	b, err := s.mustgetc()
	if err != nil {
		return false, err
	}
	switch b {
	case '-':
		if b, err = s.mustgetc(); err != nil {
			return false, err
		}
		if b != '-' {
			return false, s.syntaxError("invalid sequence <!- not part of <!--")
		}
		dashes := 0
		for {
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
			if dashes >= 2 {
				if b != '>' {
					return false, s.syntaxError(`invalid sequence "--" not allowed in comments`)
				}
				return false, nil
			}
			if b == '-' {
				dashes++
			} else {
				dashes = 0
			}
		}
	case '[':
		for i := 0; i < len("CDATA["); i++ {
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
			if b != "CDATA["[i] {
				return false, s.syntaxError("invalid <![ sequence")
			}
		}
		return true, nil
	}
	return false, s.directive()
}

// directive skips a directive such as <!DOCTYPE ...> whose first byte
// after "<!" has been read. As in encoding/xml, it ends at the first
// '>' outside quotes and outside nested '<' ... '>' pairs, and a
// nested "<!--" opens a comment that runs to "-->".
func (s *xmlScanner) directive() error {
	var inquote byte
	depth := 0
	for {
		b, err := s.mustgetc()
		if err != nil {
			return err
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for i := 0; i < len("!--"); i++ {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b != "!--"[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, err = s.mustgetc(); err != nil {
					return err
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// Byte classes of the character-data loops: 0 stops the fast path
// for handling one by one, 1 is copied, 2 is copied and marks the
// token for the UTF-8 and Char-range check (control bytes and bytes
// at or above 0x80).
var textClass, cdataClass, attrClass = func() (text, cdata, attr [256]byte) {
	for c := 0; c < 256; c++ {
		k := byte(1)
		if c < ' ' && c != '\t' && c != '\n' || c >= utf8.RuneSelf {
			k = 2
		}
		text[c], cdata[c], attr[c] = k, k, k
	}
	for _, c := range "<&\r]>" {
		text[c] = 0
	}
	for _, c := range "\r]>" {
		cdata[c] = 0
	}
	for _, c := range "<&\r\"'" {
		attr[c] = 0
	}
	return
}()

// charData decodes character data into s.text, as encoding/xml's
// text does: when quote < 0, text up to the next '<' or the end of
// the input, or with cdata a CDATA section up to its "]]>"; otherwise
// an attribute value up to the closing quote byte. It then checks the
// decoded bytes, and drops them again unless keep is set.
func (s *xmlScanner) charData(keep bool, quote int, cdata bool) error {
	class := &textClass
	switch {
	case cdata:
		class = &cdataClass
	case quote >= 0:
		class = &attrClass
	}
	w := &s.w
	start := len(s.text)
	check, eof := false, false
	brackets := 0 // ']' bytes just read, for "]]>"
	for {
		p := w.Pos
		var seen byte
		for p < w.End {
			k := class[w.Buf[p]]
			if k == 0 {
				break
			}
			seen |= k
			p++
		}
		if p > w.Pos {
			s.text = append(s.text, w.Buf[w.Pos:p]...)
			w.Pos = p
			brackets = 0
			check = check || seen&2 != 0
		}
		if w.Pos == w.End {
			if w.Fill() {
				continue
			}
			if cdata {
				if err := w.Err(); err != nil {
					return err
				}
				return s.syntaxError("unexpected EOF in CDATA section")
			}
			eof = true
			break
		}
		c := w.Buf[w.Pos]
		w.Pos++
		if c == ']' {
			brackets++
			s.text = append(s.text, c)
			continue
		}
		switch c {
		case '>':
			if brackets >= 2 {
				if !cdata {
					return s.syntaxError("unescaped ]]> not in CDATA section")
				}
				s.text = s.text[:len(s.text)-2]
				goto done
			}
			s.text = append(s.text, c)
		case '<':
			if quote >= 0 {
				return s.syntaxError("unescaped < inside quoted string")
			}
			w.Pos--
			goto done
		case '"', '\'':
			if int(c) == quote {
				goto done
			}
			s.text = append(s.text, c)
		case '&':
			ref, err := s.entity()
			if err != nil {
				return err
			}
			check = check || ref
		case '\r':
			s.text = append(s.text, '\n')
			if w.Pos < w.End || w.Fill() {
				if w.Buf[w.Pos] == '\n' {
					w.Pos++
				}
			}
		}
		brackets = 0
	}
done:
	if check {
		if msg := checkChars(s.text[start:]); msg != "" {
			return s.syntaxError(msg)
		}
	}
	if !keep {
		s.text = s.text[:start]
	}
	if eof && quote >= 0 {
		return s.eofErr()
	}
	return nil
}

// entity decodes an entity or character reference whose '&' has just
// been read, appending its text to s.text. It reports whether it was
// a character reference, whose rune the caller still has to check.
func (s *xmlScanner) entity() (ref bool, err error) {
	w := &s.w
	w.Mark = w.Pos - 1
	defer func() { w.Mark = -1 }()
	b, err := s.mustgetc()
	if err != nil {
		return false, err
	}
	if b == '#' {
		if b, err = s.mustgetc(); err != nil {
			return false, err
		}
		base := uint64(10)
		if b == 'x' {
			base = 16
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
		}
		var n uint64
		digits := 0
		for {
			d := uint64(hexDigit[b])
			if d >= base {
				break
			}
			if n <= unicode.MaxRune {
				n = n*base + d
			}
			digits++
			if b, err = s.mustgetc(); err != nil {
				return false, err
			}
		}
		if b != ';' {
			w.Pos--
			return false, s.badEntity()
		}
		if digits == 0 || n > unicode.MaxRune {
			return false, s.badEntity()
		}
		s.text = utf8.AppendRune(s.text, rune(n))
		return true, nil
	}
	w.Pos--
	name, err := s.readName()
	if err != nil {
		return false, err
	}
	var text byte
	switch string(name) {
	case "lt":
		text = '<'
	case "gt":
		text = '>'
	case "amp":
		text = '&'
	case "apos":
		text = '\''
	case "quot":
		text = '"'
	}
	if b, err = s.mustgetc(); err != nil {
		return false, err
	}
	if b != ';' {
		w.Pos--
		return false, s.badEntity()
	}
	if text == 0 {
		return false, s.badEntity()
	}
	s.text = append(s.text, text)
	return false, nil
}

// hexDigit maps a byte to its hexadecimal digit value, or to 0xff.
var hexDigit = func() (t [256]byte) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = byte(c - '0')
		case 'a' <= c && c <= 'f':
			t[c] = byte(c - 'a' + 10)
		case 'A' <= c && c <= 'F':
			t[c] = byte(c - 'A' + 10)
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// badEntity is the error for the entity that starts at w.Mark and
// ends at w.Pos.
func (s *xmlScanner) badEntity() error {
	ent := string(s.w.Buf[s.w.Mark:s.w.Pos])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	return s.syntaxError("invalid character entity " + ent)
}

// checkChars returns what encoding/xml reports for decoded text that
// is not UTF-8 or holds a rune outside the XML Char range, or "".
func checkChars(b []byte) string {
	for len(b) > 0 {
		r, size := rune(b[0]), 1
		if r >= utf8.RuneSelf {
			if r, size = utf8.DecodeRune(b); r == utf8.RuneError && size == 1 {
				return "invalid UTF-8"
			}
		}
		b = b[size:]
		if !(r == 0x09 || r == 0x0A || r == 0x0D || r >= 0x20 && r <= 0xD7FF ||
			r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF) {
			return fmt.Sprintf("illegal character code %U", r)
		}
	}
	return ""
}
