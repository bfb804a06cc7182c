package dist

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/snap"
)

// Binary snapshot codec for every distribution family. The contract is
// bit-exact round-tripping: Decode(Encode(d)) must report the same Mean,
// Variance, CDF, … to the last ulp, because recovery replays alert
// formatting (%.17g) and any rounding difference shows up as a diverged
// alert stream. Two consequences shape the implementation:
//
//   - Floats are stored as raw IEEE-754 bit patterns (snap.F64), never
//     re-derived.
//   - Decoding reconstructs structs directly instead of calling the public
//     constructors: NewMixture and NewHistogram renormalize their weights,
//     and renormalizing an already-normalized vector divides by a total
//     that is only approximately 1 — a one-ulp perturbation the contract
//     forbids. Cached fields that constructors derive by pure accumulation
//     of stored values (Histogram's running totals, Empirical.cum) are
//     recomputed with the identical fold; caches derived by quadrature
//     (Truncated's moments) are stored verbatim.
//
// The encoding is versioned by a leading byte so future field changes can
// coexist with old checkpoints.

const distCodecV1 = 1

// Family tags. Values below 128 are reserved for package dist; extension
// tags (RegisterCodec) must be >= 128.
const (
	tagPointMass uint8 = iota + 1
	tagUniform
	tagExponential
	tagNormal
	tagMixture
	tagHistogram
	tagTruncated
	tagEmpirical
)

// extCodec is an externally registered family (e.g. core's cached-moment
// wrapper around a partial aggregate).
type extCodec struct {
	tag uint8
	enc func(*snap.Writer, Dist) error
	dec func(*snap.Reader) (Dist, error)
}

var (
	extByType = map[reflect.Type]extCodec{}
	extByTag  = map[uint8]extCodec{}
)

// RegisterCodec adds an encode/decode pair for a distribution type defined
// outside this package. The tag must be >= 128 and unique; sample fixes the
// concrete type the encoder handles. Call from init only — the registry is
// not synchronized.
func RegisterCodec(tag uint8, sample Dist, enc func(*snap.Writer, Dist) error, dec func(*snap.Reader) (Dist, error)) {
	if tag < 128 {
		panic("dist: extension codec tags must be >= 128")
	}
	if _, dup := extByTag[tag]; dup {
		panic(fmt.Sprintf("dist: duplicate codec tag %d", tag))
	}
	t := reflect.TypeOf(sample)
	if _, dup := extByType[t]; dup {
		panic(fmt.Sprintf("dist: duplicate codec type %v", t))
	}
	c := extCodec{tag: tag, enc: enc, dec: dec}
	extByType[t] = c
	extByTag[tag] = c
}

// Encode appends d's snapshot encoding to w.
func Encode(w *snap.Writer, d Dist) error {
	w.U8(distCodecV1)
	return encodeBody(w, d)
}

func encodeBody(w *snap.Writer, d Dist) error {
	switch v := d.(type) {
	case PointMass:
		w.U8(tagPointMass)
		w.F64(v.V)
	case Uniform:
		w.U8(tagUniform)
		w.F64(v.A)
		w.F64(v.B)
	case Exponential:
		w.U8(tagExponential)
		w.F64(v.Rate)
	case Normal:
		w.U8(tagNormal)
		w.F64(v.Mu)
		w.F64(v.Sigma)
	case *Mixture:
		w.U8(tagMixture)
		w.F64s(v.Weights)
		for _, c := range v.Components {
			if err := encodeBody(w, c); err != nil {
				return err
			}
		}
	case *Histogram:
		w.U8(tagHistogram)
		w.F64(v.Lo)
		w.F64(v.Hi)
		w.F64s(v.Masses())
	case *Truncated:
		w.U8(tagTruncated)
		w.F64(v.Lo)
		w.F64(v.Hi)
		w.F64(v.flo)
		w.F64(v.mass)
		w.F64(v.mean)
		w.F64(v.variance)
		if err := encodeBody(w, v.Base); err != nil {
			return err
		}
	case *Empirical:
		w.U8(tagEmpirical)
		w.F64s(v.xs)
		w.F64s(v.ws)
		w.F64(v.mean)
		w.F64(v.variance)
		w.F64(v.bw)
	default:
		if c, ok := extByType[reflect.TypeOf(d)]; ok {
			w.U8(c.tag)
			return c.enc(w, d)
		}
		return fmt.Errorf("dist: no snapshot codec for %T", d)
	}
	return nil
}

// Decode reads one distribution from r. On malformed input it records the
// error on r and returns nil.
func Decode(r *snap.Reader) Dist {
	if v := r.U8(); v != distCodecV1 && r.Err() == nil {
		r.Fail("dist codec version %d (want %d)", v, distCodecV1)
		return nil
	}
	return decodeBody(r)
}

func decodeBody(r *snap.Reader) Dist {
	tag := r.U8()
	if r.Err() != nil {
		return nil
	}
	return decodeTagged(r, tag)
}

// decodeTagged reads the body of a distribution whose family tag was read.
func decodeTagged(r *snap.Reader, tag uint8) Dist {
	switch tag {
	case tagPointMass:
		return PointMass{V: r.F64()}
	case tagUniform:
		return Uniform{A: r.F64(), B: r.F64()}
	case tagExponential:
		return Exponential{Rate: r.F64()}
	case tagNormal:
		return Normal{Mu: r.F64(), Sigma: r.F64()}
	case tagMixture:
		ws := r.F64s()
		if r.Err() != nil {
			return nil
		}
		comps := make([]Dist, len(ws))
		for i := range comps {
			comps[i] = decodeBody(r)
			if r.Err() != nil {
				return nil
			}
		}
		// Direct construction: the stored weights are already normalized
		// and must not be renormalized (see file comment).
		return &Mixture{Weights: ws, Components: comps}
	case tagHistogram:
		lo, hi := r.F64(), r.F64()
		probs := r.F64s()
		if r.Err() != nil {
			return nil
		}
		if len(probs) == 0 {
			r.Fail("histogram with no bins")
			return nil
		}
		// Rebuild the stored bins with the same left-to-right fold
		// NewHistogram uses over the same normalized masses — bit-identical
		// by construction — keeping every bin when a mass is negative or
		// not finite, and leaving out only +0 bins otherwise.
		h := &Histogram{Lo: lo, Hi: hi, n: len(probs)}
		all := !h.sparseExact()
		for _, p := range probs {
			all = all || !(p >= 0) || math.IsInf(p, 1)
		}
		var acc float64
		for i, p := range probs {
			acc += p
			if all || math.Float64bits(p) != 0 {
				h.bins = append(h.bins, bin{i: i, p: p, cum: acc})
			}
		}
		h.pin()
		return h
	case tagTruncated:
		t := &Truncated{}
		t.Lo, t.Hi = r.F64(), r.F64()
		t.flo, t.mass = r.F64(), r.F64()
		t.mean, t.variance = r.F64(), r.F64()
		t.Base = decodeBody(r)
		if r.Err() != nil {
			return nil
		}
		return t
	case tagEmpirical:
		xs := r.F64s()
		ws := r.F64s()
		mean, variance, bw := r.F64(), r.F64(), r.F64()
		if r.Err() != nil {
			return nil
		}
		if len(xs) == 0 || len(xs) != len(ws) {
			r.Fail("empirical with %d samples, %d weights", len(xs), len(ws))
			return nil
		}
		cum := make([]float64, len(ws))
		var acc float64
		for i, w := range ws {
			acc += w
			cum[i] = acc
		}
		cum[len(cum)-1] = 1
		return &Empirical{xs: xs, ws: ws, cum: cum, mean: mean, variance: variance, bw: bw}
	default:
		if c, ok := extByTag[tag]; ok {
			d, err := c.dec(r)
			if err != nil {
				r.Fail("decoding extension dist tag %d: %v", tag, err)
				return nil
			}
			return d
		}
		r.Fail("unknown dist tag %d", tag)
		return nil
	}
}
