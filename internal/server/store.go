package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store persists one checkpoint blob per stream epoch. Put must be atomic:
// a reader (recovery after a crash, possibly mid-Put) must see either the
// previous complete checkpoint or the new complete checkpoint, never a
// torn mix — the engine checkpoints while the process can die at any
// instruction.
type Store interface {
	// Put durably replaces epoch's checkpoint.
	Put(epoch int, data []byte) error
	// Get reads epoch's checkpoint.
	Get(epoch int) ([]byte, error)
	// List returns the epochs with a checkpoint on disk, ascending.
	List() ([]int, error)
	// Delete removes epoch's checkpoint (the stream completed; recovery
	// must not resurrect it). Deleting a missing epoch is a no-op.
	Delete(epoch int) error
}

// FileStore is the single-file-per-epoch Store: dir/epoch-<n>.ckpt,
// replaced via the write-temp, fsync, rename, fsync-dir protocol. Rename
// within one directory is atomic on POSIX filesystems, the file fsync
// makes the bytes durable before the name moves, and the directory fsync
// makes the name move itself durable — so a crash at any point leaves
// either the old complete file or the new complete file.
//
// Each file wraps its blob in an envelope — payload length and CRC-32C —
// so a file the protocol cannot protect (truncated by a full disk, bit-rotted,
// edited by hand) fails Get with ErrCorruptFile instead of handing a decoder
// bytes that might parse as the wrong state.
type FileStore struct {
	dir string
}

// ErrCorruptFile is the base error Get returns for a checkpoint file whose
// envelope does not check out.
var ErrCorruptFile = errors.New("server: corrupt checkpoint file")

// envelope: u64 payload length, u32 CRC-32C of the payload (little endian),
// then the payload.
const envelopeHeader = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func seal(data []byte) []byte {
	out := make([]byte, envelopeHeader, envelopeHeader+len(data))
	binary.LittleEndian.PutUint64(out, uint64(len(data)))
	binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(data, castagnoli))
	return append(out, data...)
}

func unseal(file []byte) ([]byte, error) {
	if len(file) < envelopeHeader {
		return nil, fmt.Errorf("%w: %d bytes, shorter than its header", ErrCorruptFile, len(file))
	}
	payload := file[envelopeHeader:]
	if n := binary.LittleEndian.Uint64(file); n != uint64(len(payload)) {
		return nil, fmt.Errorf("%w: header says %d payload bytes, file holds %d", ErrCorruptFile, n, len(payload))
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(file[8:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptFile)
	}
	return payload, nil
}

// NewFileStore opens (creating if needed) a checkpoint directory.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: checkpoint dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) path(epoch int) string {
	return filepath.Join(s.dir, fmt.Sprintf("epoch-%d.ckpt", epoch))
}

// Put implements Store.
func (s *FileStore) Put(epoch int, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, fmt.Sprintf(".epoch-%d-*.tmp", epoch))
	if err != nil {
		return fmt.Errorf("server: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(seal(data)); err != nil {
		tmp.Close()
		return fmt.Errorf("server: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(epoch)); err != nil {
		return fmt.Errorf("server: checkpoint rename: %w", err)
	}
	return s.syncDir()
}

// syncDir makes a completed rename (or delete) durable.
func (s *FileStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("server: checkpoint dir sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("server: checkpoint dir sync: %w", err)
	}
	return nil
}

// Get implements Store; a file whose envelope does not check out is an
// ErrCorruptFile error.
func (s *FileStore) Get(epoch int) ([]byte, error) {
	file, err := os.ReadFile(s.path(epoch))
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint read: %w", err)
	}
	data, err := unseal(file)
	if err != nil {
		return nil, fmt.Errorf("epoch %d: %w", epoch, err)
	}
	return data, nil
}

// List implements Store.
func (s *FileStore) List() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint list: %w", err)
	}
	var epochs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "epoch-") || !strings.HasSuffix(name, ".ckpt") {
			continue // temp files, foreign files
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "epoch-"), ".ckpt"))
		if err != nil {
			continue
		}
		epochs = append(epochs, n)
	}
	sort.Ints(epochs)
	return epochs, nil
}

// Delete implements Store.
func (s *FileStore) Delete(epoch int) error {
	if err := os.Remove(s.path(epoch)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("server: checkpoint delete: %w", err)
	}
	return s.syncDir()
}
