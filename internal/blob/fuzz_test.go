package blob

import (
	"bytes"
	"testing"
)

// fuzzSize is the buffer size FuzzBufferOps drives: small enough that
// checking every snapshot after every operation stays cheap, large
// enough for runs to split, merge and straddle each other.
const fuzzSize = 512

// opReader decodes fuzz input into operation parameters; an exhausted
// input reads as zeros.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *opReader) u16() int64 { return int64(r.byte())<<8 | int64(r.byte()) }

// span decodes an in-range [off, off+n) of the fuzz buffer.
func (r *opReader) span() (off, n int64) {
	off = r.u16() % fuzzSize
	return off, r.u16() % (fuzzSize - off + 1)
}

// literal decodes n bytes of literal content.
func (r *opReader) literal(n int64) []byte {
	p := make([]byte, n)
	x := r.byte()
	for i := range p {
		p[i] = x + byte(i)*31
	}
	return p
}

// synthetic decodes n bytes of synthetic content meant to land at buffer
// offset at: the buffer's own background at the matching or a shifted
// stream offset, or zeros or a foreign seed anywhere.
func (r *opReader) synthetic(bg uint64, at, n int64) Blob {
	seed := []uint64{bg, 0, 0x5eed}[r.byte()%3]
	off := at
	if r.byte()%2 == 1 {
		off += 1 + r.u16()
	}
	return Synthetic(seed, off+n).Slice(off, n)
}

// kept is a blob whose content must never change after it was taken.
type kept struct {
	b    Blob
	want []byte
}

// FuzzBufferOps decodes its input into a sequence of Buffer operations
// and checks every read against a flat []byte model. Every blob taken
// from the buffer, and every blob written into it, must keep its content
// through all later operations: snapshots share the buffer's literal
// bytes and writes adopt the source's, so this is the copy-on-write
// invariant.
func FuzzBufferOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 10, 0, 20, 7, 6, 0, 0, 1, 0, 0, 0, 0, 5, 0, 12, 9})
	f.Add([]byte{0, 2, 0, 0, 1, 0, 3, 6, 0, 0, 2, 0, 0, 0, 64, 0, 128, 1, 1, 0, 9, 0, 0, 3, 0, 32})
	f.Add([]byte{2, 4, 0, 100, 0, 50, 1, 2, 1, 0, 7, 5, 6, 0, 90, 0, 80, 0, 0, 95, 0, 10, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		bg := []uint64{0, 1, 0xdeadbeef}[r.byte()%3]
		buf := NewBuffer(fuzzSize, bg)
		model := make([]byte, fuzzSize)
		Materialize(bg, 0, model)
		var keep []kept
		for op := 0; op < 64 && len(r.data) > 0; op++ {
			off, n := r.span()
			switch r.byte() % 8 {
			case 0:
				p := r.literal(n)
				buf.WriteAt(p, off)
				copy(model[off:], p)
				clear(p) // WriteAt must have copied p
			case 1:
				v := r.byte()
				buf.Fill(v, off, n)
				for i := off; i < off+n; i++ {
					model[i] = v
				}
			case 2, 3, 4:
				var src Blob
				switch r.byte() % 3 {
				case 0:
					src = FromBytes(r.literal(n))
				case 1:
					src = r.synthetic(bg, off, n)
				default:
					a := n / 3
					src = Concat(FromBytes(r.literal(a)), r.synthetic(bg, off+a, n-2*a), FromBytes(r.literal(a)))
				}
				buf.WriteBlob(off, src)
				copy(model[off:], src.Bytes())
				keep = append(keep, kept{src, src.Bytes()})
			case 5:
				var src Blob
				if len(keep) > 0 && r.byte()%2 == 0 {
					k := keep[int(r.byte())%len(keep)].b
					src = Concat(Synthetic(bg, fuzzSize-k.Len()), k)
				} else {
					a := r.u16() % (fuzzSize + 1)
					src = Concat(r.synthetic(bg, 0, a), FromBytes(r.literal(fuzzSize-a)))
				}
				buf.Restore(src)
				copy(model, src.Bytes())
				keep = append(keep, kept{src, src.Bytes()})
			case 6:
				s := buf.SnapshotRange(off, n)
				if !bytes.Equal(s.Bytes(), model[off:off+n]) {
					t.Fatalf("op %d: SnapshotRange(%d, %d) differs from the model", op, off, n)
				}
				keep = append(keep, kept{s, bytes.Clone(model[off : off+n])})
			default:
				p := make([]byte, n)
				buf.ReadAt(p, off)
				if !bytes.Equal(p, model[off:off+n]) {
					t.Fatalf("op %d: ReadAt(%d, %d) differs from the model", op, off, n)
				}
			}
			for i, k := range keep {
				if !bytes.Equal(k.b.Bytes(), k.want) {
					t.Fatalf("op %d: blob %d changed after it was taken or written", op, i)
				}
			}
		}
		if !bytes.Equal(buf.Snapshot().Bytes(), model) {
			t.Fatal("final content differs from the model")
		}
	})
}
