package core

import (
	"fmt"
	"os"

	"anton/internal/faults"
)

// Crash-consistent checkpoint files. A checkpoint that a crash can tear
// mid-write is worse than none: it replaces a good restore point with a
// file that fails (or worse, half-parses). (*faults.FS).WriteFile gives
// the standard guarantee — at every instant the path holds either the
// complete previous image or the complete new one:
//
//  1. write to a unique temp file in the same directory (same filesystem,
//     so the rename below cannot degrade to copy+delete),
//  2. fsync the temp file (data durable before it becomes visible),
//  3. rename over the destination (atomic on POSIX),
//  4. fsync the directory (the rename itself durable).
//
// A leftover *.tmp-* file from a crash between 1 and 3 is inert: restores
// read the destination path only. The checkpoint's own trailing CRC32
// (format v2) catches the remaining failure mode, silent corruption of a
// completed file, and RestoreCheckpoint validates before mutating any
// state — so a damaged file fails the restore and leaves the previous
// in-memory state intact.

// WriteCheckpointFile writes a checkpoint to path crash-consistently:
// the sequence above, through a nil storage fault plane — the same
// WriteFile the service drives with a plane attached, so the storage
// chaos campaign exercises exactly the sequence production runs.
func (e *Engine) WriteCheckpointFile(path string) error {
	if err := (*faults.FS)(nil).WriteFile(path, e.appendCheckpoint(nil)); err != nil {
		return fmt.Errorf("core: writing checkpoint %s: %w", path, err)
	}
	return nil
}

// RestoreCheckpointFile restores a checkpoint from path. Validation
// happens before any engine state is touched (format v2), so a torn or
// corrupted file leaves the engine as it was.
func (e *Engine) RestoreCheckpointFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return e.restoreImage(b)
}

// CheckpointFileCRC reads the checkpoint at path, validates it as a
// restore does (header, the length its atom count fixes, trailing CRC32)
// and returns the stored CRC. The run ledger records it alongside each
// checkpoint write, so an audit can prove the file on disk is the one the
// ledger describes without re-deriving any state.
func CheckpointFileCRC(path string) (uint32, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return validateImage(b, -1)
}
