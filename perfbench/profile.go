package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stageFuncs maps the core.Cycle stage methods to their per-layer metric.
// A sample belongs to the innermost stage frame on its stack, so recover,
// called from the stages that resolve branches, is counted on its own.
var stageFuncs = map[string]string{
	"smtfetch/internal/core.(*Sim).issue":         "core.issue_pct",
	"smtfetch/internal/core.(*Sim).predictStage":  "core.predict_pct",
	"smtfetch/internal/core.(*Sim).fetchStage":    "core.fetch_pct",
	"smtfetch/internal/core.(*Sim).writeback":     "core.writeback_pct",
	"smtfetch/internal/core.(*Sim).recover":       "core.recover_pct",
	"smtfetch/internal/core.(*Sim).commit":        "core.commit_pct",
	"smtfetch/internal/core.(*Sim).dispatch":      "core.dispatch_pct",
	"smtfetch/internal/core.(*Sim).decodeResolve": "core.decode_pct",
	"smtfetch/internal/core.(*Sim).decodeAdvance": "core.decode_pct",
}

const (
	cycleFunc    = "smtfetch/internal/core.(*Sim).Cycle"
	streamPrefix = "smtfetch/internal/prog.(*Stream)."
)

// stageProfile accumulates CPU-profile samples by cycle-loop stage.
type stageProfile struct {
	counts map[string]int64
	cycle  int64
}

// add attributes one gzipped pprof CPU profile. Only samples under
// core.(*Sim).Cycle count; prog.stream_pct counts samples with a
// prog.Stream method anywhere on the stack, so it overlaps the stage that
// called it.
func (sp *stageProfile) add(gz []byte) error {
	stacks, err := parseProfile(gz)
	if err != nil {
		return err
	}
	if sp.counts == nil {
		sp.counts = map[string]int64{}
	}
	for _, st := range stacks {
		inCycle, stage, stream := false, "", false
		for _, fn := range st.funcs {
			if fn == cycleFunc {
				inCycle = true
			}
			if m, ok := stageFuncs[fn]; ok && stage == "" {
				stage = m
			}
			if strings.HasPrefix(fn, streamPrefix) {
				stream = true
			}
		}
		if !inCycle {
			continue
		}
		sp.cycle += st.count
		if stage != "" {
			sp.counts[stage] += st.count
		}
		if stream {
			sp.counts["prog.stream_pct"] += st.count
		}
	}
	return nil
}

// shares is each stage's percentage of the samples under Cycle.
func (sp *stageProfile) shares() map[string]float64 {
	out := map[string]float64{"prog.stream_pct": 0}
	for _, m := range stageFuncs {
		out[m] = 0
	}
	for m, n := range sp.counts {
		out[m] = 100 * ratio(float64(n), float64(sp.cycle))
	}
	return out
}

// sampleStack is one profile sample: its sample count and its function names,
// innermost first (inlined frames included).
type sampleStack struct {
	count int64
	funcs []string
}

// parseProfile decodes the parts of a gzipped profile.proto that stage
// attribution needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]sampleStack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stacks := make([]sampleStack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile sample without values")
		}
		st := sampleStack{count: s.values[0]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// fields walks the fields of one protobuf message, calling f with the
// field number and either the varint value or the length-delimited bytes.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := f(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field occurrence: a single varint
// value when b is nil, else a packed run of varints.
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
