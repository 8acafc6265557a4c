package blob

import (
	"fmt"
	"slices"
	"sort"
)

// Buffer is a mutable, fixed-size memory content: a synthetic background
// (what the memory held when allocated) plus an overlay of every range
// whose content was replaced since. It is the content representation of a
// simulated process's memory regions and COI buffers.
//
// The overlay is a sorted list of runs, each either literal bytes or a
// synthetic stream (seed, stream offset) — the same two kinds a Blob's
// extents come in. WriteBlob and Restore adopt a source blob's extents as
// runs: literal bytes are shared, not copied, and synthetic content is
// never materialized. Blob literals are immutable, so sharing is
// copy-on-write: literal bytes the buffer allocated itself are written in
// place until a snapshot shares them, and any shared run is copied before
// the first write that touches it.
//
// Buffer is not safe for concurrent use; the owning process model
// serializes access (a real process's memory has no internal locking
// either).
type Buffer struct {
	size   int64
	seed   uint64
	writes []run // sorted by off, non-overlapping
}

// run is one overlay extent covering [off, off+n).
type run struct {
	off, n int64
	// data holds a literal run's bytes; it is nil for a synthetic run.
	data []byte
	// seed and soff are a synthetic run's stream and the stream offset of
	// its first byte.
	seed uint64
	soff int64
	// owned marks literal bytes no blob shares: they may be written in
	// place and grown by append.
	owned bool
}

func (r *run) end() int64    { return r.off + r.n }
func (r *run) literal() bool { return r.data != nil }

// sub returns the part of r covering [s, e), which must lie inside r. A
// literal part is capped at its length, so growing one part by append
// can never write into another.
func (r *run) sub(s, e int64) run {
	out := *r
	out.off, out.n = s, e-s
	if r.literal() {
		out.data = r.data[s-r.off : e-r.off : e-r.off]
	} else {
		out.soff += s - r.off
	}
	return out
}

// read fills dst with r's content from buffer offset s on.
func (r *run) read(s int64, dst []byte) {
	if r.literal() {
		copy(dst, r.data[s-r.off:])
		return
	}
	Materialize(r.seed, r.soff+(s-r.off), dst)
}

// extent returns r as a blob extent.
func (r *run) extent() Extent {
	if r.literal() {
		return Extent{Literal: r.data, Size: r.n}
	}
	return Extent{Seed: r.seed, Off: r.soff, Size: r.n}
}

// NewBuffer returns a Buffer of size bytes of background content seed
// (seed 0 = zero-filled, like fresh anonymous memory).
func NewBuffer(size int64, seed uint64) *Buffer {
	if size < 0 {
		panic(fmt.Sprintf("blob: negative buffer size %d", size)) //nolint:paniclib // caller bug: a negative size is unconstructible input, not a runtime condition
	}
	return &Buffer{size: size, seed: seed}
}

// Size returns the buffer size in bytes.
func (b *Buffer) Size() int64 { return b.size }

// DirtyBytes returns the number of overlay bytes held as literal (real)
// bytes; background and synthetic overlay runs hold none.
func (b *Buffer) DirtyBytes() int64 {
	var n int64
	for i := range b.writes {
		if b.writes[i].literal() {
			n += b.writes[i].n
		}
	}
	return n
}

// search returns the index of the first run ending after off (strict) or
// at or after off (when abut is set).
func (b *Buffer) search(off int64, abut bool) int {
	if abut {
		off--
	}
	return sort.Search(len(b.writes), func(i int) bool { return b.writes[i].end() > off })
}

// WriteAt copies p into the buffer at off.
func (b *Buffer) WriteAt(p []byte, off int64) {
	if off < 0 || off+int64(len(p)) > b.size {
		panic(fmt.Sprintf("blob: write [%d,%d) out of range of %d", off, off+int64(len(p)), b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	if len(p) == 0 {
		return
	}
	end := off + int64(len(p))

	// lo is the run holding off or abutting it on the left.
	lo := b.search(off, true)
	if lo < len(b.writes) {
		if r := &b.writes[lo]; r.literal() && r.off <= off {
			// Fast path: the write lands inside one literal run (the
			// steady state once a hot region has coalesced). A shared run
			// is copied first; after that the writes go in place.
			if end <= r.end() {
				if !r.owned {
					r.data, r.owned = slices.Clone(r.data), true
				}
				copy(r.data[off-r.off:], p)
				return
			}
			// Append fast path: the write extends the tail of one owned
			// run and touches no other (the steady state of sequential
			// writers) — append amortizes instead of re-copying the run.
			if r.owned && (lo+1 == len(b.writes) || b.writes[lo+1].off > end) {
				k := r.end() - off
				copy(r.data[off-r.off:], p[:k])
				r.data = append(r.data, p[k:]...)
				r.n = int64(len(r.data))
				return
			}
		}
	}

	// Slow path: one new owned run replaces [off, end). Literal runs
	// overlapping or abutting either edge merge into it, so a hot range
	// stays one run; a synthetic run keeps its part outside the range.
	hi := sort.Search(len(b.writes), func(i int) bool { return b.writes[i].off > end })
	newOff, newEnd := off, end
	var left, right *run
	if lo < hi {
		if r := &b.writes[lo]; r.literal() && r.off < off {
			left, newOff = r, r.off
		}
		if r := &b.writes[hi-1]; r.literal() && r.end() > end {
			right, newEnd = r, r.end()
		}
	}
	merged := make([]byte, newEnd-newOff)
	if left != nil {
		copy(merged, left.data[:off-left.off])
	}
	copy(merged[off-newOff:], p)
	if right != nil {
		copy(merged[end-newOff:], right.data[end-right.off:])
	}
	b.splice(newOff, newEnd, run{off: newOff, n: newEnd - newOff, data: merged, owned: true})
}

// splice replaces the overlay over [off, end) with repl, runs inside the
// range in order. A run straddling an edge keeps its part outside. The
// cost is two binary searches plus shifting the runs after the range.
func (b *Buffer) splice(off, end int64, repl ...run) {
	if off >= end {
		return
	}
	lo := b.search(off, false)
	hi := sort.Search(len(b.writes), func(i int) bool { return b.writes[i].off >= end })
	mid := make([]run, 0, len(repl)+2)
	if lo < hi {
		if r := &b.writes[lo]; r.off < off {
			mid = append(mid, r.sub(r.off, off))
		}
	}
	mid = append(mid, repl...)
	if lo < hi {
		if r := &b.writes[hi-1]; r.end() > end {
			mid = append(mid, r.sub(end, r.end()))
		}
	}
	b.writes = slices.Replace(b.writes, lo, hi, mid...)
}

// Fill writes n copies of v starting at off.
func (b *Buffer) Fill(v byte, off, n int64) {
	p := make([]byte, n)
	if v != 0 {
		for i := range p {
			p[i] = v
		}
	}
	b.WriteAt(p, off)
}

// ReadAt fills p with buffer content at off.
func (b *Buffer) ReadAt(p []byte, off int64) {
	if off < 0 || off+int64(len(p)) > b.size {
		panic(fmt.Sprintf("blob: read [%d,%d) out of range of %d", off, off+int64(len(p)), b.size)) //nolint:paniclib // caller bug: read bounds, mirroring built-in slice semantics
	}
	end := off + int64(len(p))
	pos := off
	for i := b.search(off, false); i < len(b.writes) && b.writes[i].off < end; i++ {
		r := &b.writes[i]
		s, e := max(r.off, off), min(r.end(), end)
		if s > pos {
			Materialize(b.seed, pos, p[pos-off:s-off])
		}
		r.read(s, p[s-off:e-off])
		pos = e
	}
	if pos < end {
		Materialize(b.seed, pos, p[pos-off:])
	}
}

// Snapshot returns an immutable Blob of the buffer's current content.
func (b *Buffer) Snapshot() Blob { return b.SnapshotRange(0, b.size) }

// Restore overwrites the buffer's entire content from a blob of the same
// size, adopting its extents as WriteBlob does.
func (b *Buffer) Restore(src Blob) {
	if src.Len() != b.size {
		panic(fmt.Sprintf("blob: restore size %d into buffer of %d", src.Len(), b.size)) //nolint:paniclib // caller bug: a restore image matches the buffer size by protocol construction
	}
	b.writes = nil
	b.WriteBlob(0, src)
}

// WriteBlob writes src into the buffer at off without copying or
// materializing anything: literal extents become shared literal runs,
// synthetic extents become synthetic runs, and a synthetic extent that
// matches the buffer's own background at that position — the same seed at
// the same stream offset, or zeros anywhere in a zero-background buffer —
// clears the overlay so the background shows through. This is what keeps
// RDMA transfers and restores of mostly-untouched gigabyte regions cheap.
func (b *Buffer) WriteBlob(off int64, src Blob) {
	if off < 0 || off+src.Len() > b.size {
		panic(fmt.Sprintf("blob: WriteBlob [%d,%d) out of range of %d", off, off+src.Len(), b.size)) //nolint:paniclib // caller bug: write bounds, mirroring built-in slice semantics
	}
	repl := make([]run, 0, len(src.extents))
	pos := off
	for _, e := range src.extents {
		switch {
		case e.IsLiteral():
			repl = append(repl, run{off: pos, n: e.Size, data: e.Literal[:e.Size:e.Size]})
		case e.Seed == b.seed && (e.Seed == 0 || e.Off == pos):
			// Identical background: no run.
		default:
			repl = append(repl, run{off: pos, n: e.Size, seed: e.Seed, soff: e.Off})
		}
		pos += e.Size
	}
	b.splice(off, pos, repl...)
}

// SnapshotRange returns an immutable Blob of the buffer content in
// [off, off+n). Literal runs are shared with the blob, not copied; the
// buffer copies a shared run before it next writes into it.
func (b *Buffer) SnapshotRange(off, n int64) Blob {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("blob: SnapshotRange [%d,%d) out of range of %d", off, off+n, b.size)) //nolint:paniclib // caller bug: snapshot bounds, mirroring built-in slice semantics
	}
	if n == 0 {
		return Blob{}
	}
	out := Blob{size: n}
	end := off + n
	pos := off
	for i := b.search(off, false); i < len(b.writes) && b.writes[i].off < end; i++ {
		r := &b.writes[i]
		s, e := max(r.off, off), min(r.end(), end)
		if s > pos {
			out.extents = append(out.extents, Extent{Seed: b.seed, Off: pos, Size: s - pos})
		}
		part := r.sub(s, e)
		out.extents = append(out.extents, part.extent())
		r.owned = false
		pos = e
	}
	if pos < end {
		out.extents = append(out.extents, Extent{Seed: b.seed, Off: pos, Size: end - pos})
	}
	return out
}
