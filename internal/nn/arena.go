package nn

import (
	"fmt"
	"math/bits"
	"sync"
	"unsafe"
)

// Arena is a bump allocator for Matrix backing stores and headers. All
// allocations made through an arena live until the next Reset; Reset rewinds
// the arena in O(chunks) without freeing, so a hot loop that resets between
// iterations reaches zero steady-state heap allocations.
//
// The float64 chunks backing an arena are drawn from a global sync.Pool per
// power-of-two size class, so arenas of similar working-set size share
// memory across goroutines and idle chunks are reclaimable by the GC. The
// same pools are where all of training's bulk memory comes from: a GradPool
// borrows its pass scratch from them directly and its tapes from tapePool,
// Adam its moments, a LoRA fit its cached prefixes, and when the fit ends
// all of it, and the chunks the tapes' arenas grew, comes back here.
//
// Aliasing hazard: a *Matrix returned by an arena (and anything sharing its
// Data) becomes invalid at Reset — the same memory is handed out again, and
// Floats zeroes it on reuse (UninitMatrix does not). Copy anything that must
// outlive the arena's cycle. An Arena is not safe for concurrent use; use one
// per goroutine.
type Arena struct {
	chunks [][]float64 // bump chunks, chunks[:ci] full, chunks[ci][off:] free
	ci     int
	off    int
	hdrs   [][]Matrix // fixed-size header slabs (never moved once allocated)
	hi     int
	hoff   int
	// weightsT are the transposes of parameter values the arena holds this
	// cycle (weightT), found by the value they were formed from.
	weightsT []transposed
	// tape, set on a tape's arena, makes every chunk after the first at
	// least tapeChunk floats. A training tape holds a whole minibatch, and
	// megabytes of request-sized chunks would come in classes that follow
	// the order of its requests; in one class, what a pre-train's tapes
	// return is what a fine-tune's borrow, and the other way round.
	tape bool
}

// tapeChunk is the class every chunk after a tape arena's first has at
// least: 256 KiB.
const tapeChunk = 1 << 15

const (
	arenaMinClass = 10 // smallest pooled chunk: 2^10 floats = 8 KiB
	arenaMaxClass = 24 // largest pooled chunk: 2^24 floats = 128 MiB
	hdrSlabSize   = 256
)

// chunkPools holds reusable float64 chunks keyed by size class c, each of
// length exactly 1<<c. What is pooled is the chunk's first element's address
// — the class supplies the length — because a pointer goes into the pool's
// interface as it is, where a slice header would be copied to the heap on
// every Put.
var chunkPools [arenaMaxClass + 1]sync.Pool

// classFor returns the smallest pooled size class holding n floats, or -1
// when n exceeds the largest class (the chunk is then sized exactly and not
// pooled on Release).
func classFor(n int) int {
	c := bits.Len(uint(n - 1))
	if c < arenaMinClass {
		return arenaMinClass
	}
	if c > arenaMaxClass {
		return -1
	}
	return c
}

// newChunk obtains a chunk with capacity for at least n floats. An idle
// chunk of the next class up is taken before a new one is made: a fine-tune's
// tapes and moments then run on the chunks the pre-train before it returned
// instead of keeping a second set resident beside them.
func newChunk(n int) []float64 {
	c := classFor(n)
	if c < 0 {
		return make([]float64, n)
	}
	for up := c; up <= min(c+1, arenaMaxClass); up++ {
		if v := chunkPools[up].Get(); v != nil {
			return unsafe.Slice(v.(*float64), 1<<up)
		}
	}
	return make([]float64, 1<<c)
}

// putChunk hands a chunk obtained from newChunk back to its size-class pool;
// an exact-size oversize chunk is left to the GC. The caller must drop every
// reference to c: the next newChunk of that class, on any goroutine, owns it.
func putChunk(c []float64) {
	c = c[:cap(c)]
	if cl := classFor(len(c)); cl >= 0 && len(c) == 1<<cl {
		chunkPools[cl].Put(unsafe.SliceData(c))
	}
}

// Floats allocates a zeroed slice of n float64s from the arena.
func (a *Arena) Floats(n int) []float64 {
	s := a.take(n)
	clear(s)
	return s
}

// take bumps n float64s off the arena without clearing them: a fresh chunk
// reads as zeros, a recycled one as whatever the last cycle left there.
func (a *Arena) take(n int) []float64 {
	if n < 0 {
		panic(fmt.Sprintf("nn: Arena.Floats(%d)", n))
	}
	if n == 0 {
		return nil
	}
	for {
		if a.ci < len(a.chunks) {
			if c := a.chunks[a.ci]; a.off+n <= len(c) {
				s := c[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			// Current chunk can't fit n: move on (its tail is wasted until
			// Reset).
			a.ci++
			a.off = 0
			continue
		}
		want := n
		if a.tape && len(a.chunks) > 0 {
			want = max(n, tapeChunk)
		}
		a.chunks = append(a.chunks, newChunk(want))
		a.off = 0
	}
}

// Matrix allocates a zeroed rows×cols matrix whose header and backing store
// both live in the arena.
func (a *Arena) Matrix(rows, cols int) *Matrix {
	m := a.header(rows, cols)
	m.Data = a.Floats(rows * cols)
	return m
}

// UninitMatrix is Matrix without the clear, for a destination whose every
// element the caller assigns before reading any (ProjectOneHotInto's dst):
// until then its contents are unspecified. Products that accumulate into
// their destination (MatMulInto, MatMulSpansInto), span kernels that skip
// masked positions and one-hot feature rows all need Matrix.
func (a *Arena) UninitMatrix(rows, cols int) *Matrix {
	m := a.header(rows, cols)
	m.Data = a.take(rows * cols)
	return m
}

// header allocates a rows×cols matrix header with no backing store.
func (a *Arena) header(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %d×%d", rows, cols))
	}
	if a.hi >= len(a.hdrs) {
		a.hdrs = append(a.hdrs, make([]Matrix, hdrSlabSize))
		a.hoff = 0
	}
	m := &a.hdrs[a.hi][a.hoff]
	a.hoff++
	if a.hoff == hdrSlabSize {
		a.hi++
		a.hoff = 0
	}
	m.Rows, m.Cols = rows, cols
	return m
}

// Reset rewinds the arena: every allocation made since the last Reset is
// invalidated and its memory will be reused (and re-zeroed) by subsequent
// allocations. The chunks stay attached to the arena; the weight transposes
// die with the memory they were formed in, and the arena forgets the
// parameter values they were formed from.
func (a *Arena) Reset() {
	a.ci, a.off = 0, 0
	a.hi, a.hoff = 0, 0
	if len(a.weightsT) > 0 {
		clear(a.weightsT)
		a.weightsT = a.weightsT[:0]
	}
}

// transposed is one weight transpose: t = wᵀ, formed in the arena.
type transposed struct{ w, t *Matrix }

// weightT returns wᵀ for a parameter value w, formed in the arena on the
// first request of the cycle and returned again until the next Reset. The
// caller promises that w does not change before then — true of every
// parameter on a tape, which the optimizer steps only between passes.
func (a *Arena) weightT(w *Matrix) *Matrix {
	for _, e := range a.weightsT {
		if e.w == w {
			return e.t
		}
	}
	t := a.transpose(w)
	a.weightsT = append(a.weightsT, transposed{w: w, t: t})
	return t
}

// transpose returns mᵀ in a fresh arena matrix.
func (a *Arena) transpose(m *Matrix) *Matrix {
	t := a.UninitMatrix(m.Cols, m.Rows)
	transposeInto(t.Data, m.Data, m.Rows, m.Cols)
	return t
}

// transposeInto writes the transpose of the rows×cols matrix src into dst
// (cols×rows). Eight rows of src are read side by side, so each column
// lands in dst as one whole cache line of eight floats; four rows, then
// one, finish the tail.
func transposeInto(dst, src []float64, rows, cols int) {
	i := 0
	for ; i+8 <= rows; i += 8 {
		r0, r1 := src[i*cols:][:cols], src[(i+1)*cols:][:cols]
		r2, r3 := src[(i+2)*cols:][:cols], src[(i+3)*cols:][:cols]
		r4, r5 := src[(i+4)*cols:][:cols], src[(i+5)*cols:][:cols]
		r6, r7 := src[(i+6)*cols:][:cols], src[(i+7)*cols:][:cols]
		for j := range r0 {
			d := dst[j*rows+i:][:8]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			d[4], d[5], d[6], d[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; i+4 <= rows; i += 4 {
		r0, r1 := src[i*cols:][:cols], src[(i+1)*cols:][:cols]
		r2, r3 := src[(i+2)*cols:][:cols], src[(i+3)*cols:][:cols]
		for j := range r0 {
			d := dst[j*rows+i:][:4]
			d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
		}
	}
	for ; i < rows; i++ {
		for j, v := range src[i*cols:][:cols] {
			dst[j*rows+i] = v
		}
	}
}

// trim returns the chunks past the one in use to the pools, keeping what
// the arena holds now.
func (a *Arena) trim() {
	if a.ci+1 >= len(a.chunks) {
		return
	}
	for i, c := range a.chunks[a.ci+1:] {
		putChunk(c)
		a.chunks[a.ci+1+i] = nil
	}
	a.chunks = a.chunks[:a.ci+1]
}

// Release resets the arena and returns its pooled-class chunks to the global
// size-class pools, dropping exact-size oversize chunks for the GC. Header
// slabs stay attached (they are small). The arena remains usable.
func (a *Arena) Release() {
	for i, c := range a.chunks {
		putChunk(c)
		a.chunks[i] = nil
	}
	a.chunks = a.chunks[:0]
	a.Reset()
}
