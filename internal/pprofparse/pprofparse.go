// Package pprofparse is a stdlib-only decoder for the pprof profile
// format — the gzipped protobuf that runtime/pprof writes and every Go
// profiling endpoint serves. It decodes the pieces resource
// attribution needs (string table, sample types, samples with resolved
// symbol stacks, period metadata) and layers flat/cumulative top-N
// aggregation and A-vs-B diffing on top, so the bench harness and the
// incident flight recorder's profiled captures can turn raw profiles
// into named-symbol tables without importing the (non-stdlib)
// github.com/google/pprof machinery.
//
// The wire format is protobuf; the relevant schema (profile.proto):
//
//	Profile:  1 sample_type (ValueType), 2 sample (Sample),
//	          4 location (Location), 5 function (Function),
//	          6 string_table, 9 time_nanos, 10 duration_nanos,
//	          11 period_type (ValueType), 12 period
//	ValueType: 1 type (strtab idx), 2 unit (strtab idx)
//	Sample:    1 location_id (repeated), 2 value (repeated)
//	Location:  1 id, 4 line (Line, repeated)
//	Line:      1 function_id, 2 line
//	Function:  1 id, 2 name (strtab idx), 4 filename (strtab idx)
//
// Repeated integer fields appear packed (length-delimited) or
// unpacked; both encodings are handled.
package pprofparse

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
)

// ValueType names one sample dimension ("alloc_space"/"bytes",
// "cpu"/"nanoseconds", ...).
type ValueType struct {
	Type string `json:"type"`
	Unit string `json:"unit"`
}

// Frame is one resolved stack frame.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file,omitempty"`
	Line int64  `json:"line,omitempty"`
}

// Sample is one profile sample: a leaf-first stack and one value per
// sample type.
type Sample struct {
	Stack  []Frame `json:"stack"`
	Values []int64 `json:"values"`
}

// Profile is a decoded pprof profile.
type Profile struct {
	SampleTypes   []ValueType `json:"sample_types"`
	Samples       []Sample    `json:"samples"`
	PeriodType    ValueType   `json:"period_type"`
	Period        int64       `json:"period"`
	TimeNanos     int64       `json:"time_nanos"`
	DurationNanos int64       `json:"duration_nanos"`
}

// TypeIndex returns the index of the named sample type, or -1.
func (p *Profile) TypeIndex(name string) int {
	for i, st := range p.SampleTypes {
		if st.Type == name {
			return i
		}
	}
	return -1
}

// Total sums the given value dimension over all samples.
func (p *Profile) Total(typeIndex int) int64 {
	var t int64
	for _, s := range p.Samples {
		if typeIndex >= 0 && typeIndex < len(s.Values) {
			t += s.Values[typeIndex]
		}
	}
	return t
}

// ParseFile decodes the profile at path.
func ParseFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// Parse decodes a profile from r, transparently ungzipping (every
// profile Go writes is gzipped, but raw protobuf is accepted too).
func Parse(r io.Reader) (*Profile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseData(data)
}

// ParseData decodes a profile from an in-memory capture.
func ParseData(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprofparse: gzip: %w", err)
		}
		defer zr.Close()
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("pprofparse: gunzip: %w", err)
		}
		data = raw
	}
	return decodeProfile(data)
}

// wire types of the protobuf encoding.
const (
	wireVarint = 0
	wireI64    = 1
	wireLen    = 2
	wireI32    = 5
)

// decoder walks one protobuf message body.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) done() bool { return d.pos >= len(d.data) }

// varint reads one base-128 varint.
func (d *decoder) varint() (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		if d.pos >= len(d.data) {
			return 0, io.ErrUnexpectedEOF
		}
		b := d.data[d.pos]
		d.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
	}
	return 0, fmt.Errorf("varint too long")
}

// tag reads one field tag, returning (field number, wire type).
func (d *decoder) tag() (int, int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(v >> 3), int(v & 7), nil
}

// bytes reads one length-delimited field body.
func (d *decoder) bytes() ([]byte, error) {
	n, err := d.varint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.data)-d.pos) {
		return nil, io.ErrUnexpectedEOF
	}
	b := d.data[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return b, nil
}

// skip discards one field body of the given wire type.
func (d *decoder) skip(wire int) error {
	switch wire {
	case wireVarint:
		_, err := d.varint()
		return err
	case wireI64:
		if len(d.data)-d.pos < 8 {
			return io.ErrUnexpectedEOF
		}
		d.pos += 8
		return nil
	case wireLen:
		_, err := d.bytes()
		return err
	case wireI32:
		if len(d.data)-d.pos < 4 {
			return io.ErrUnexpectedEOF
		}
		d.pos += 4
		return nil
	default:
		return fmt.Errorf("unsupported wire type %d", wire)
	}
}

// ints appends a repeated integer field occurrence: packed bodies
// decode every varint in the payload, unpacked ones decode a single
// value.
func (d *decoder) ints(wire int, out []uint64) ([]uint64, error) {
	if wire == wireLen {
		body, err := d.bytes()
		if err != nil {
			return nil, err
		}
		sub := decoder{data: body}
		for !sub.done() {
			v, err := sub.varint()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	v, err := d.varint()
	if err != nil {
		return nil, err
	}
	return append(out, v), nil
}

// rawValueType is a ValueType before string-table resolution.
type rawValueType struct{ typ, unit uint64 }

func decodeValueType(body []byte) (rawValueType, error) {
	d := decoder{data: body}
	var vt rawValueType
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return vt, err
		}
		switch field {
		case 1:
			if vt.typ, err = d.varint(); err != nil {
				return vt, err
			}
		case 2:
			if vt.unit, err = d.varint(); err != nil {
				return vt, err
			}
		default:
			if err := d.skip(wire); err != nil {
				return vt, err
			}
		}
	}
	return vt, nil
}

type rawSample struct {
	locIDs []uint64
	values []uint64
}

func decodeSample(body []byte) (rawSample, error) {
	d := decoder{data: body}
	var s rawSample
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			if s.locIDs, err = d.ints(wire, s.locIDs); err != nil {
				return s, err
			}
		case 2:
			if s.values, err = d.ints(wire, s.values); err != nil {
				return s, err
			}
		default:
			if err := d.skip(wire); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

type rawLine struct {
	funcID uint64
	line   int64
}

type rawLocation struct {
	id    uint64
	lines []rawLine
}

func decodeLocation(body []byte) (rawLocation, error) {
	d := decoder{data: body}
	var loc rawLocation
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return loc, err
		}
		switch field {
		case 1:
			if loc.id, err = d.varint(); err != nil {
				return loc, err
			}
		case 4:
			lineBody, err := d.bytes()
			if err != nil {
				return loc, err
			}
			ln, err := decodeLine(lineBody)
			if err != nil {
				return loc, err
			}
			loc.lines = append(loc.lines, ln)
		default:
			if err := d.skip(wire); err != nil {
				return loc, err
			}
		}
	}
	return loc, nil
}

func decodeLine(body []byte) (rawLine, error) {
	d := decoder{data: body}
	var ln rawLine
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return ln, err
		}
		switch field {
		case 1:
			if ln.funcID, err = d.varint(); err != nil {
				return ln, err
			}
		case 2:
			v, err := d.varint()
			if err != nil {
				return ln, err
			}
			ln.line = int64(v)
		default:
			if err := d.skip(wire); err != nil {
				return ln, err
			}
		}
	}
	return ln, nil
}

type rawFunction struct {
	id, name, filename uint64
}

func decodeFunction(body []byte) (rawFunction, error) {
	d := decoder{data: body}
	var fn rawFunction
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return fn, err
		}
		switch field {
		case 1:
			if fn.id, err = d.varint(); err != nil {
				return fn, err
			}
		case 2:
			if fn.name, err = d.varint(); err != nil {
				return fn, err
			}
		case 4:
			if fn.filename, err = d.varint(); err != nil {
				return fn, err
			}
		default:
			if err := d.skip(wire); err != nil {
				return fn, err
			}
		}
	}
	return fn, nil
}

// decodeProfile decodes the top-level Profile message and resolves
// string and symbol references.
func decodeProfile(data []byte) (*Profile, error) {
	d := decoder{data: data}
	var (
		sampleTypes []rawValueType
		samples     []rawSample
		locations   = map[uint64]rawLocation{}
		functions   = map[uint64]rawFunction{}
		strings     []string
		periodType  rawValueType
		p           = &Profile{}
	)
	for !d.done() {
		field, wire, err := d.tag()
		if err != nil {
			return nil, fmt.Errorf("pprofparse: %w", err)
		}
		switch field {
		case 1, 2, 4, 5, 6, 11: // length-delimited submessages / strings
			body, err := d.bytes()
			if err != nil {
				return nil, fmt.Errorf("pprofparse: field %d: %w", field, err)
			}
			switch field {
			case 1:
				vt, err := decodeValueType(body)
				if err != nil {
					return nil, fmt.Errorf("pprofparse: sample_type: %w", err)
				}
				sampleTypes = append(sampleTypes, vt)
			case 2:
				s, err := decodeSample(body)
				if err != nil {
					return nil, fmt.Errorf("pprofparse: sample: %w", err)
				}
				samples = append(samples, s)
			case 4:
				loc, err := decodeLocation(body)
				if err != nil {
					return nil, fmt.Errorf("pprofparse: location: %w", err)
				}
				locations[loc.id] = loc
			case 5:
				fn, err := decodeFunction(body)
				if err != nil {
					return nil, fmt.Errorf("pprofparse: function: %w", err)
				}
				functions[fn.id] = fn
			case 6:
				strings = append(strings, string(body))
			case 11:
				if periodType, err = decodeValueType(body); err != nil {
					return nil, fmt.Errorf("pprofparse: period_type: %w", err)
				}
			}
		case 9, 10, 12:
			v, err := d.varint()
			if err != nil {
				return nil, fmt.Errorf("pprofparse: field %d: %w", field, err)
			}
			switch field {
			case 9:
				p.TimeNanos = int64(v)
			case 10:
				p.DurationNanos = int64(v)
			case 12:
				p.Period = int64(v)
			}
		default:
			if err := d.skip(wire); err != nil {
				return nil, fmt.Errorf("pprofparse: field %d: %w", field, err)
			}
		}
	}
	if len(sampleTypes) == 0 && len(samples) == 0 {
		return nil, fmt.Errorf("pprofparse: no sample types or samples (not a pprof profile?)")
	}
	str := func(i uint64) string {
		if i < uint64(len(strings)) {
			return strings[i]
		}
		return ""
	}
	for _, vt := range sampleTypes {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	p.PeriodType = ValueType{Type: str(periodType.typ), Unit: str(periodType.unit)}
	for _, rs := range samples {
		s := Sample{Values: make([]int64, len(rs.values))}
		for i, v := range rs.values {
			s.Values[i] = int64(v)
		}
		// Location IDs are leaf-first. A location with inlining expands
		// into one frame per line, innermost first (matching the proto's
		// line order).
		for _, id := range rs.locIDs {
			loc, ok := locations[id]
			if !ok {
				s.Stack = append(s.Stack, Frame{Func: fmt.Sprintf("location#%d", id)})
				continue
			}
			if len(loc.lines) == 0 {
				s.Stack = append(s.Stack, Frame{Func: fmt.Sprintf("location#%d", id)})
				continue
			}
			for _, ln := range loc.lines {
				fr := Frame{Line: ln.line}
				if fn, ok := functions[ln.funcID]; ok {
					fr.Func = str(fn.name)
					fr.File = str(fn.filename)
				}
				if fr.Func == "" {
					fr.Func = fmt.Sprintf("function#%d", ln.funcID)
				}
				s.Stack = append(s.Stack, fr)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}
