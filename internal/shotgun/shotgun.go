// Package shotgun implements Shotgun (§4.8): a rapid-synchronization tool
// that wraps rsync-style deltas around Bullet'. A user computes the batch
// delta between the old and new software image once, bundles the per-file
// edit scripts into a single archive, and disseminates that bundle to all
// nodes over the Bullet' mesh; each node then replays the deltas locally.
// This replaces N point-to-point rsync sessions — whose aggregate
// performance is limited by the source's uplink, CPU and disk — with one
// multicast-efficient transfer, which is where the paper's two orders of
// magnitude come from.
package shotgun

import (
	"bytes"
	"fmt"
	"sort"

	"bulletprime/internal/rsyncx"
)

// FileDelta is one file's edit script within a bundle.
type FileDelta struct {
	Path   string
	Delta  rsyncx.Delta
	Create bool // file absent in the old image
}

// Bundle is the unit Shotgun disseminates: a version number plus every
// file's delta (the "tar of rsync batch logs" of §4.8).
type Bundle struct {
	Version int
	Files   []FileDelta
	Deleted []string // files removed in the new image
}

// WireSize returns the bundle's dissemination size in bytes.
func (b Bundle) WireSize() int {
	n := 64
	for _, f := range b.Files {
		n += len(f.Path) + 8 + f.Delta.WireSize()
	}
	for _, p := range b.Deleted {
		n += len(p) + 8
	}
	return n
}

// BuildBundle computes the batch delta between two directory images
// (path -> content), the shotgun_sync preparation step.
func BuildBundle(version int, old, new map[string][]byte, blockSize int) Bundle {
	b := Bundle{Version: version}
	var paths []string
	for p := range new {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		oldData, existed := old[p]
		if !existed {
			// New file: pure literal delta against an empty base.
			d := rsyncx.ComputeDelta(rsyncx.ComputeSignature(nil, blockSize), new[p])
			b.Files = append(b.Files, FileDelta{Path: p, Delta: d, Create: true})
			continue
		}
		if bytes.Equal(oldData, new[p]) {
			continue // unchanged files have no delta
		}
		d := rsyncx.ComputeDelta(rsyncx.ComputeSignature(oldData, blockSize), new[p])
		b.Files = append(b.Files, FileDelta{Path: p, Delta: d})
	}
	var deleted []string
	for p := range old {
		if _, ok := new[p]; !ok {
			deleted = append(deleted, p)
		}
	}
	sort.Strings(deleted)
	b.Deleted = deleted
	return b
}

// ApplyBundle replays a bundle on an old image, returning the new image.
// Files whose delta versions are stale (bundle version <= current) are the
// caller's concern; Shotgun nodes track a single image version.
func ApplyBundle(old map[string][]byte, b Bundle) (map[string][]byte, error) {
	out := make(map[string][]byte, len(old)+len(b.Files))
	for p, data := range old {
		out[p] = data
	}
	for _, f := range b.Files {
		base := out[f.Path]
		if f.Create {
			base = nil
		}
		data, err := rsyncx.Apply(base, f.Delta)
		if err != nil {
			return nil, fmt.Errorf("shotgun: applying %s: %w", f.Path, err)
		}
		out[f.Path] = data
	}
	for _, p := range b.Deleted {
		delete(out, p)
	}
	return out, nil
}
