package frozen

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ErrNotFound reports a fingerprint with no frozen table in the store.
var ErrNotFound = errors.New("frozen: table not in store")

// Store is a content-addressed directory of frozen tables: one
// `<fingerprint>.frz` file per analysis, written atomically, loaded
// zero-copy.  It is what makes lalrd restarts warm — the store outlives
// the in-memory response cache.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("frozen: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a fingerprint to its file.  Fingerprints are hex SHA-256
// strings (the repro.Fingerprint contract), so they are safe path
// segments; anything else is rejected to keep hostile keys out of the
// filesystem.
func (s *Store) path(fingerprint string) (string, error) {
	if fingerprint == "" || strings.ContainsAny(fingerprint, "/\\.") {
		return "", fmt.Errorf("frozen: invalid fingerprint %q", fingerprint)
	}
	return filepath.Join(s.dir, fingerprint+".frz"), nil
}

// Save atomically writes a frozen table under td.Fingerprint: encode,
// write to a temp file in the same directory, fsync-free rename.  A
// concurrent Save of the same fingerprint is harmless — both writers
// produce identical bytes (the fingerprint is a content address) and
// rename is atomic.
func (s *Store) Save(td *TableData) error {
	p, err := s.path(td.Fingerprint)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".frz-*")
	if err != nil {
		return fmt.Errorf("frozen: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(Freeze(td)); err != nil {
		tmp.Close()
		return fmt.Errorf("frozen: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("frozen: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("frozen: save: %w", err)
	}
	return nil
}

// Load reads and decodes the frozen table for a fingerprint: one file
// read, one header parse, zero per-element work.  It returns
// ErrNotFound when the store has no entry, a *DecodeError (matching
// ErrCorrupt) when the file is damaged, and ErrCorrupt also when the
// file's recorded fingerprint disagrees with its name — a store that
// lies about content addresses must not serve.
func (s *Store) Load(fingerprint string) (*Table, error) {
	p, err := s.path(fingerprint)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("frozen: load: %w", err)
	}
	t, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if t.Fingerprint != fingerprint {
		return nil, corrupt(0, "fingerprint mismatch: file %s records %q", p, t.Fingerprint)
	}
	return t, nil
}

// LoadBytes reads the raw validated FRZ1 bytes for a fingerprint —
// the peer-serving path: bytes go on the wire as stored, and the
// receiver re-validates.  The bytes are decode-checked before being
// returned so a node never ships a table it would refuse to load
// itself; errors follow Load's contract (ErrNotFound, ErrCorrupt).
func (s *Store) LoadBytes(fingerprint string) ([]byte, error) {
	p, err := s.path(fingerprint)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("frozen: load: %w", err)
	}
	t, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if t.Fingerprint != fingerprint {
		return nil, corrupt(0, "fingerprint mismatch: file %s records %q", p, t.Fingerprint)
	}
	return b, nil
}

// PutBytes stores already-frozen bytes under a fingerprint — the
// fill-from-peer path.  The bytes are fully validated first by Verify
// (decode, CRC, recorded fingerprint must equal the claimed one), so a
// corrupt or lying peer can never plant a table; then the write is the
// same atomic temp+rename as Save.
func (s *Store) PutBytes(fingerprint string, raw []byte) error {
	p, err := s.path(fingerprint)
	if err != nil {
		return err
	}
	if err := Verify(fingerprint, raw); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".frz-*")
	if err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("frozen: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		return fmt.Errorf("frozen: put: %w", err)
	}
	return nil
}

// Quarantine moves a damaged table aside as `<fingerprint>.corrupt`
// instead of deleting it (the evidence matters for debugging how it
// got damaged), clearing the way for a clean re-freeze after the next
// compute.  Quarantining a fingerprint with no file is a no-op: a
// concurrent quarantine of the same file must not fail the request.
func (s *Store) Quarantine(fingerprint string) error {
	p, err := s.path(fingerprint)
	if err != nil {
		return err
	}
	q := strings.TrimSuffix(p, ".frz") + ".corrupt"
	if err := os.Rename(p, q); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("frozen: quarantine: %w", err)
	}
	return nil
}

// Len counts the frozen tables currently in the store (for /metricz
// and smoke assertions).
func (s *Store) Len() (int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".frz") {
			n++
		}
	}
	return n, nil
}
