package t2

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Source is a random-access codestream: an io.ReaderAt plus its total size.
// It is the streaming substrate of the container layer — the scanner, the
// lazy Index and the decoder all consume a Source, so a codestream can live
// on disk (or behind any ReaderAt) and only the bytes a given operation needs
// are ever read. A Source built from resident bytes (BytesSource) is the
// zero-cost adapter: the scanner's window and the decoder's tile bodies alias
// the slice and no copying happens.
//
// A Source is safe for concurrent use as long as the underlying ReaderAt is
// (os.File and bytes are; both issue positioned reads with no shared cursor).
type Source struct {
	r    io.ReaderAt
	size int64
	data []byte // resident bytes, when the source wraps a []byte

	closer io.Closer // closed by Close (file-backed sources)
}

// BytesSource wraps resident bytes as a Source. Readers alias data; the
// caller must not mutate it while the Source is in use.
func BytesSource(data []byte) *Source {
	return &Source{data: data, size: int64(len(data))}
}

// NewSource wraps an io.ReaderAt of the given size. The reader must support
// concurrent positioned reads (os.File does) for the Source to be shared
// between goroutines.
func NewSource(r io.ReaderAt, size int64) *Source {
	return &Source{r: r, size: size}
}

// OpenFile opens path as a file-backed Source. Close releases the file.
func OpenFile(path string) (*Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Source{r: f, size: st.Size(), closer: f}, nil
}

// Size returns the codestream length in bytes.
func (s *Source) Size() int64 { return s.size }

// Mem returns the resident bytes of a BytesSource, or nil for a reader-backed
// source. Fast paths use it to alias instead of copy.
func (s *Source) Mem() []byte { return s.data }

// ReadAt fills b from offset off, error-bounded to the source size. Unlike a
// raw io.ReaderAt it never returns io.EOF alongside a full read.
func (s *Source) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(b)) > s.size {
		return 0, fmt.Errorf("t2: source read [%d, %d) outside %d-byte stream", off, off+int64(len(b)), s.size)
	}
	if s.data != nil {
		return copy(b, s.data[off:]), nil
	}
	n, err := s.r.ReadAt(b, off)
	if err == io.EOF && n == len(b) {
		err = nil
	}
	if err != nil {
		// Every read failure escaping a Source is a typed *ReadError, so the
		// codec and serving tiers classify IO faults uniformly whether or not
		// the source is wrapped in a ResilientSource (which returns them
		// already wrapped, with its attempt accounting).
		var re *ReadError
		if !errors.As(err, &re) {
			err = &ReadError{Off: off, Len: len(b), Attempts: 1, Transient: Transient(err), Err: err}
		}
	}
	return n, err
}

// Close releases the underlying reader when the Source owns one (OpenFile);
// for byte- and caller-owned-reader sources it does nothing.
func (s *Source) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
