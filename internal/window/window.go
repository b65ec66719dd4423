// Package window is the refill window the XML and JSON document
// scanners read their input through. A Reader holds one fixed-size
// buffer over an io.Reader; consumed bytes slide out on each refill,
// so memory stays at the window size however long the input is. The
// buffer grows only when a single token (a name, a string, an entity)
// is longer than the window, and the scanners keep such a token in
// the window with Mark.
package window

import (
	"bytes"
	"io"
	"sync"
)

// Size is the window's length in bytes. Windows of this size are
// recycled between Readers; grown ones are left to the collector.
const Size = 32 << 10

var pool = sync.Pool{New: func() any { b := make([]byte, Size); return &b }}

// maxEmptyReads bounds how often Fill retries a reader that returns
// neither bytes nor an error, as bufio does.
const maxEmptyReads = 100

// Reader is a refill window over an io.Reader. Buf[Pos:End] holds the
// bytes read but not yet consumed; a scanner consumes them by
// advancing Pos, and calls Fill once Pos reaches End.
type Reader struct {
	Buf      []byte
	Pos, End int
	// Mark, when not negative, is the start of a token being read:
	// Fill keeps Buf[Mark:] in the window, moving Mark with it.
	Mark int

	r     io.Reader
	buf   *[]byte // the pooled window, returned by Release
	err   error   // the reader's error, io.EOF included, once seen
	base  int64   // input offset of Buf[0]
	lines int     // newlines in the input before Buf[0]
}

// Init points the window at r, taking a buffer from the pool.
func (w *Reader) Init(r io.Reader) {
	b := pool.Get().(*[]byte)
	*w = Reader{Buf: *b, Mark: -1, r: r, buf: b}
}

// Release returns the window's buffer to the pool. The Reader must
// not be used afterwards.
func (w *Reader) Release() {
	if w.buf != nil {
		pool.Put(w.buf)
	}
	*w = Reader{}
}

// Fill reads more input into the window and reports whether any
// arrived. It first slides out the consumed bytes, those before Pos
// or before Mark when Mark is set, and doubles the window only when
// nothing can slide out of a full one. After Fill returns false, Err
// tells the end of the input from a read error.
func (w *Reader) Fill() bool {
	if w.err != nil {
		return false
	}
	keep := w.Pos
	if w.Mark >= 0 && w.Mark < keep {
		keep = w.Mark
	}
	if keep > 0 {
		w.lines += bytes.Count(w.Buf[:keep], newline)
		w.base += int64(keep)
		w.End = copy(w.Buf, w.Buf[keep:w.End])
		w.Pos -= keep
		if w.Mark >= 0 {
			w.Mark -= keep
		}
	}
	if w.End == len(w.Buf) {
		grown := make([]byte, 2*len(w.Buf))
		copy(grown, w.Buf[:w.End])
		w.Buf = grown
	}
	for i := 0; i < maxEmptyReads; i++ {
		n, err := w.r.Read(w.Buf[w.End:])
		w.End += n
		if err != nil {
			w.err = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	w.err = io.ErrNoProgress
	return false
}

var newline = []byte{'\n'}

// Err returns the error that stopped Fill: nil at the end of the
// input, the reader's error otherwise.
func (w *Reader) Err() error {
	if w.err == io.EOF {
		return nil
	}
	return w.err
}

// Offset returns the input offset of Buf[Pos].
func (w *Reader) Offset() int64 { return w.base + int64(w.Pos) }

// Line returns the 1-based line of Buf[Pos]: one more than the
// newlines consumed before it.
func (w *Reader) Line() int { return w.lines + bytes.Count(w.Buf[:w.Pos], newline) + 1 }
