package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pj2k/internal/jp2k"
	"pj2k/internal/t2"
)

// Image is one served codestream: the codestream Source (resident bytes or a
// file/ReaderAt on disk, read the same way) plus the packet index built over
// it, which holds packet maps and never tile bodies. Both are
// immutable after registration, so any number of request goroutines share
// them without locking; the index's lazy per-tile packet maps are internally
// synchronized.
type Image struct {
	ID    string
	src   *t2.Source
	Index *t2.Index
	grids [][2][]int // Grid per discard level, computed at registration

	// health is the server's per-image IO-failure tracking (quarantine
	// state); it is the one mutable part of an Image and is internally
	// locked.
	health imageHealth
}

// Size returns the codestream length in bytes.
func (im *Image) Size() int64 { return im.src.Size() }

// Params returns the codestream header parameters.
func (im *Image) Params() t2.Params { return im.Index.Params }

// Grid returns the reduced tile geometry at the given discard level (0 to
// Params().Levels) as prefix sums: colW[tx] is the x origin of tile column tx
// in the reduced image (colW[ntx] its width), likewise rowH for rows. The
// geometry comes from the decoder (jp2k.TileGrid), so window/tile mapping
// here can never drift from what DecodeRegion actually decodes. It is
// computed once per level when the image is registered; the slices are
// shared by every request and must not be modified.
func (im *Image) Grid(discard int) (colW, rowH []int) {
	g := &im.grids[discard]
	return g[0], g[1]
}

// newImage is a registered image over src and its index, with the tile grid
// of every discard level computed up front.
func newImage(id string, src *t2.Source, ix *t2.Index) *Image {
	im := &Image{ID: id, src: src, Index: ix, grids: make([][2][]int, ix.Params.Levels+1)}
	for d := range im.grids {
		im.grids[d][0], im.grids[d][1] = jp2k.TileGrid(ix.Params, d)
	}
	return im
}

// Store is the registry of served images. Registration validates the stream
// container (eagerly for resident bytes, headers-only for lazy sources);
// lookups are lock-cheap and concurrent.
type Store struct {
	mu   sync.RWMutex
	imgs map[string]*Image
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{imgs: make(map[string]*Image)} }

// Add registers a resident codestream under id, building its packet index
// eagerly. A corrupt or truncated stream is rejected here, at registration,
// so request handlers never see an unindexable image. The store keeps data
// as the image's source (t2.BytesSource) and reads it like a file: requests
// go through the same per-request retry wrapper, and the index keeps no copy
// of it. An id is registered at most once: adding an id already in the store
// is an error, and the first image stays served.
func (s *Store) Add(id string, data []byte) (*Image, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: empty image id")
	}
	src := t2.BytesSource(data)
	ix, err := t2.BuildIndex(src)
	if err != nil {
		return nil, fmt.Errorf("serve: indexing %q: %w", id, err)
	}
	return s.put(newImage(id, src, ix))
}

// AddSource registers a codestream source under id with lazy ingest: only
// the main header and the tile-part chain are read at registration (no tile
// bodies), so a directory of huge scenes registers in milliseconds. Memory
// scales with the tiles actually served, not the corpus: the index keeps each
// tile's packet map, never its body, so even a full /info or /stream reads
// the bodies and drops them. Container-level
// damage (bad geometry, broken tile-part chain) is still rejected here;
// packet-level damage inside a tile body surfaces on first touch of that
// tile. As with Add, a duplicate id is an error. The store takes ownership of
// src on success (Close releases it); on error the caller still owns it.
func (s *Store) AddSource(id string, src *t2.Source) (*Image, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: empty image id")
	}
	ix, err := t2.NewIndex(src)
	if err != nil {
		return nil, fmt.Errorf("serve: indexing %q: %w", id, err)
	}
	return s.put(newImage(id, src, ix))
}

func (s *Store) put(im *Image) (*Image, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.imgs[im.ID]; dup {
		return nil, fmt.Errorf("serve: image id %q already registered", im.ID)
	}
	s.imgs[im.ID] = im
	return im, nil
}

// Get returns the image registered under id.
func (s *Store) Get(id string) (*Image, bool) {
	s.mu.RLock()
	im, ok := s.imgs[id]
	s.mu.RUnlock()
	return im, ok
}

// Len returns the number of registered images.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.imgs)
}

// IDs returns the registered image ids, sorted.
func (s *Store) IDs() []string {
	s.mu.RLock()
	ids := make([]string, 0, len(s.imgs))
	for id := range s.imgs {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sort.Strings(ids)
	return ids
}

// Close releases every registered image's source (file-backed sources close
// their files; byte sources are no-ops) and empties the store. Every close
// failure is reported (joined), not just the first — leaked file handles are
// an ops problem and each one deserves a line in the log. Call it after the
// server has drained; in-flight decodes reading a closed source fail with a
// read error, they do not crash.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for id, im := range s.imgs {
		if err := im.src.Close(); err != nil {
			errs = append(errs, fmt.Errorf("serve: closing %q: %w", id, err))
		}
		delete(s.imgs, id)
	}
	return errors.Join(errs...)
}

// LoadDir registers every *.j2k file in dir under its basename (without
// extension), as lazy file-backed sources: registration reads each file's
// headers and tile-part chain, never the tile bodies. A file that cannot be
// opened or indexed is skipped, not fatal — one corrupt file must not take
// down startup for the whole corpus. Returns the number of images added plus
// the joined per-file errors (n > 0 with err != nil means a partial load).
func (s *Store) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	var errs []error
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".j2k") {
			continue
		}
		src, err := t2.OpenFile(filepath.Join(dir, e.Name()))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, err := s.AddSource(strings.TrimSuffix(e.Name(), ".j2k"), src); err != nil {
			src.Close()
			errs = append(errs, err)
			continue
		}
		n++
	}
	return n, errors.Join(errs...)
}
