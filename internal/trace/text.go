package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MaxDays bounds a workload's days and its ops' Day fields, in both
// codecs and in the generator's Config; beyond it the input is surely
// malformed (the paper's runs span 300 days), and an Op's int32 Day
// holds it.
const MaxDays = 1 << 20

// MaxCg bounds an op's cylinder group: an Op's Cg is an int16.
const MaxCg = math.MaxInt16

// WriteWorkloadText emits the workload in a line-oriented text format
// for inspection and diffing:
//
//	# ffsage workload days=<n>
//	<day> <sec> <kind> <id> <cg> <size> [short]
//
// <sec> is the shortest decimal that reads back as the same float64,
// so the text form keeps every op, and so the stream's order, exactly.
func WriteWorkloadText(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# ffsage workload days=%d\n", wl.Days); err != nil {
		return err
	}
	for _, op := range wl.Ops {
		short := ""
		if op.ShortLived {
			short = " short"
		}
		if _, err := fmt.Fprintf(bw, "%d %s %s %d %d %d%s\n",
			op.Day, strconv.FormatFloat(op.Sec, 'f', -1, 64), op.Kind, op.ID, op.Cg, op.Size, short); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadWorkloadText parses the text format. Like ReadWorkload, it
// rejects an op that Compare sorts before the one ahead of it.
func ReadWorkloadText(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	wl := &Workload{}
	lineNo, prevLine := 0, 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if _, after, ok := strings.Cut(line, "days="); ok {
				fields := strings.Fields(after)
				if len(fields) == 0 {
					return nil, fmt.Errorf("trace: line %d: empty days=", lineNo)
				}
				d, err := strconv.Atoi(fields[0])
				if err != nil {
					return nil, fmt.Errorf("trace: line %d: bad days: %w", lineNo, err)
				}
				if d < 0 || d > MaxDays {
					return nil, fmt.Errorf("trace: line %d: days %d out of range [0,%d]", lineNo, d, MaxDays)
				}
				wl.Days = d
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || len(f) > 7 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 6 or 7", lineNo, len(f))
		}
		var op Op
		day, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d day: %w", lineNo, err)
		}
		if day < 0 || day > MaxDays {
			return nil, fmt.Errorf("trace: line %d: day %d out of range [0,%d]", lineNo, day, MaxDays)
		}
		op.Day = int32(day)
		if op.Sec, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("trace: line %d sec: %w", lineNo, err)
		}
		if math.IsNaN(op.Sec) || math.IsInf(op.Sec, 0) || op.Sec < 0 {
			return nil, fmt.Errorf("trace: line %d: sec %v not a non-negative finite time", lineNo, op.Sec)
		}
		switch f[2] {
		case "create":
			op.Kind = OpCreate
		case "delete":
			op.Kind = OpDelete
		case "rewrite":
			op.Kind = OpRewrite
		default:
			return nil, fmt.Errorf("trace: line %d: kind %q", lineNo, f[2])
		}
		if op.ID, err = strconv.ParseInt(f[3], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d id: %w", lineNo, err)
		}
		cg, err := strconv.Atoi(f[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d cg: %w", lineNo, err)
		}
		if cg < 0 || cg > MaxCg {
			return nil, fmt.Errorf("trace: line %d: cg %d out of range [0,%d]", lineNo, cg, MaxCg)
		}
		op.Cg = int16(cg)
		if op.Size, err = strconv.ParseInt(f[5], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: line %d size: %w", lineNo, err)
		}
		if op.Size < 0 {
			return nil, fmt.Errorf("trace: line %d: negative size %d", lineNo, op.Size)
		}
		if len(f) == 7 {
			if f[6] != "short" {
				return nil, fmt.Errorf("trace: line %d: unknown trailing field %q", lineNo, f[6])
			}
			op.ShortLived = true
		}
		if n := len(wl.Ops); n > 0 && op.Compare(wl.Ops[n-1]) < 0 {
			return nil, fmt.Errorf("trace: line %d: op out of order: it sorts before the op on line %d", lineNo, prevLine)
		}
		prevLine = lineNo
		wl.Ops = append(wl.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return wl, nil
}
