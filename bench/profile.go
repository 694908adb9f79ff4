package bench

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileBuckets are the cpu_share.* metrics: the share of CPU samples
// whose innermost minions/... frame belongs to each layer's packages.
// "runtime" is everything with no minions frame at all (GC, scheduler);
// "other" is minions code outside the layers (topo, tppnet, bench itself).
var profileBuckets = []string{
	"sim", "link", "device", "core", "host", "transport", "workload",
	"telemetry", "faults", "apps", "runtime", "other",
}

// bucketOf maps a function name such as
// "minions/internal/sim.(*Engine).runTo" to its bucket, "" when the
// function is not in this module.
func bucketOf(fn string) string {
	const mod = "minions/"
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	// The package path ends at the first dot after the last slash.
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := fn[len(mod) : slash+dot]
	pkg = strings.TrimPrefix(pkg, "internal/")
	switch {
	case pkg == "sim", pkg == "link", pkg == "core", pkg == "host",
		pkg == "transport", pkg == "workload", pkg == "faults":
		return pkg
	case pkg == "device", pkg == "mem":
		return "device" // mem is the address space device's memory view resolves
	case pkg == "telemetry", pkg == "telemetry/trace":
		return "telemetry"
	case strings.HasPrefix(pkg, "apps/"), pkg == "tppnet/app":
		return "apps"
	case pkg == "tppnet/faults":
		return "faults"
	}
	return "other"
}

// cpuProfile collects runtime/pprof CPU profiles around traced windows,
// one profile per call of around; shares pools them.
type cpuProfile struct {
	bufs []*bytes.Buffer
	err  error
}

// around profiles run.
func (p *cpuProfile) around(run func()) {
	buf := &bytes.Buffer{}
	if err := pprof.StartCPUProfile(buf); err != nil {
		p.err = err
		run()
		return
	}
	run()
	pprof.StopCPUProfile()
	p.bufs = append(p.bufs, buf)
}

// labelWindow runs fn with the profiler label phase=window, so that a
// profile spanning set-up and drain too (apps-chaos) can be cut down to the
// windows.
func labelWindow(fn func()) {
	pprof.Do(context.Background(), pprof.Labels("phase", "window"), func(context.Context) { fn() })
}

// shares decodes the profile and emits cpu_share.* in percent. With a
// non-empty phase only samples labelled phase=<phase> count.
func (p *cpuProfile) shares(L map[string]float64, phase string) error {
	if p.err != nil {
		return fmt.Errorf("bench: cpu profile: %w", p.err)
	}
	totals := map[string]float64{}
	for _, buf := range p.bufs {
		if err := addProfile(totals, buf, phase); err != nil {
			return err
		}
	}
	for b, v := range normalize(totals) {
		L["cpu_share."+b] = 100 * v
	}
	return nil
}

// ProfileShares reads a gzip-compressed pprof profile and returns, per
// bucket, the share (0..1) of sample value attributed to it: each sample
// goes to the bucket of its innermost minions/... frame, or to "runtime"
// when it has none. With a non-empty phase only samples carrying the label
// phase=<phase> are counted.
func ProfileShares(r io.Reader, phase string) (map[string]float64, error) {
	totals := map[string]float64{}
	if err := addProfile(totals, r, phase); err != nil {
		return nil, err
	}
	return normalize(totals), nil
}

// normalize turns per-bucket sample totals into shares of their sum, with
// every bucket present.
func normalize(totals map[string]float64) map[string]float64 {
	var sum float64
	for _, v := range totals {
		sum += v
	}
	out := map[string]float64{}
	for _, b := range profileBuckets {
		out[b] = ratio(totals[b], sum)
	}
	return out
}

// addProfile decodes one profile and adds its sample values to totals.
func addProfile(totals map[string]float64, r io.Reader, phase string) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("bench: profile is not gzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("bench: reading profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	str := func(i uint64) string {
		if i < uint64(len(prof.strings)) {
			return prof.strings[i]
		}
		return ""
	}
	for _, s := range prof.samples {
		if phase != "" {
			tagged := false
			for _, l := range s.labels {
				if str(l[0]) == "phase" && str(l[1]) == phase {
					tagged = true
				}
			}
			if !tagged {
				continue
			}
		}
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		bucket := "runtime"
	frames:
		for _, loc := range s.locations { // leaf first
			for _, fid := range prof.locations[loc] { // innermost inlined first
				if b := bucketOf(str(prof.functions[fid])); b != "" {
					bucket = b
					break frames
				}
			}
		}
		totals[bucket] += v
	}
	return nil
}

// profile is the subset of pprof's profile.proto the reader needs.
type profile struct {
	strings   []string
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]uint64   // function id → name string index
}

type profSample struct {
	locations []uint64
	values    []int64
	labels    [][2]uint64 // key, str string indices
}

var errTruncated = errors.New("bench: truncated profile")

// protoBuf is a minimal protobuf wire-format reader: varints and
// length-delimited fields are all profile.proto uses.
type protoBuf []byte

func (b *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("bench: varint overflows 64 bits")
}

func (b *protoBuf) bytes() (protoBuf, error) {
	n, err := b.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(*b)) {
		return nil, errTruncated
	}
	out := (*b)[:n]
	*b = (*b)[n:]
	return out, nil
}

// fields calls fn for every field of a message. Varint fields arrive in v;
// length-delimited ones in data. Fixed-width fields are skipped.
func (b protoBuf) fields(fn func(num int, v uint64, data protoBuf) error) error {
	for len(b) > 0 {
		key, err := b.varint()
		if err != nil {
			return err
		}
		num, wire := int(key>>3), key&7
		var v uint64
		var data protoBuf
		switch wire {
		case 0:
			v, err = b.varint()
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			data, err = b.bytes()
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("bench: unsupported protobuf wire type %d", wire)
		}
		if err != nil {
			return err
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated appends one occurrence of a repeated varint field, packed
// (data != nil) or not.
func repeated(dst []uint64, v uint64, data protoBuf) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]uint64{}}
	err := protoBuf(raw).fields(func(num int, _ uint64, data protoBuf) error {
		switch num {
		case 2: // sample
			var s profSample
			err := data.fields(func(num int, v uint64, d protoBuf) error {
				var err error
				switch num {
				case 1:
					s.locations, err = repeated(s.locations, v, d)
				case 2:
					var vals []uint64
					if vals, err = repeated(nil, v, d); err == nil {
						for _, x := range vals {
							s.values = append(s.values, int64(x))
						}
					}
				case 3:
					var l [2]uint64
					err = d.fields(func(num int, v uint64, _ protoBuf) error {
						if num == 1 || num == 2 {
							l[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, l)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := data.fields(func(num int, v uint64, d protoBuf) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return d.fields(func(num int, v uint64, _ protoBuf) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := data.fields(func(num int, v uint64, _ protoBuf) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
