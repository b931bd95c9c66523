package t2

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// Source is a random-access codestream: an io.ReaderAt plus its total size.
// It is the streaming substrate of the container layer — the scanner, the
// lazy Index and the decoder all consume a Source, so a codestream can live
// on disk (or behind any ReaderAt) and only the bytes a given operation needs
// are ever read. ReadAt is the only way bytes leave a Source, whatever backs
// it: resident bytes (BytesSource), a file (OpenFile) or any other ReaderAt
// all take the same path, and every consumer copies what it reads into its
// own buffer.
//
// A Source is safe for concurrent use as long as the underlying ReaderAt is
// (os.File and bytes are; both issue positioned reads with no shared cursor).
type Source struct {
	r    io.ReaderAt
	size int64

	closer io.Closer // closed by Close (file-backed sources)
}

// BytesSource wraps resident bytes as a Source: NewSource over a
// bytes.Reader, both in one allocation. Reads copy out of data; the caller
// must not mutate it while the Source is in use.
func BytesSource(data []byte) *Source {
	b := new(struct {
		Source
		rd bytes.Reader
	})
	b.rd.Reset(data)
	b.Source = Source{r: &b.rd, size: int64(len(data))}
	return &b.Source
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

// ReadAt fills b from offset off, error-bounded to the source size. Unlike a
// raw io.ReaderAt it never returns io.EOF alongside a full read.
func (s *Source) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(b)) > s.size {
		return 0, fmt.Errorf("t2: source read [%d, %d) outside %d-byte stream", off, off+int64(len(b)), s.size)
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
			err = &ReadError{Off: off, Len: len(b), Attempts: 1, Transient: isTransient(err), Err: err}
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
