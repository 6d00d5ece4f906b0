package aging

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/trace"
)

// TestStepperCountsInjectedFault: Apply absorbs an injected allocation
// fault as a skip, counted in both Skipped and Faulted, and leaves no
// file behind for the lost create.
func TestStepperCountsInjectedFault(t *testing.T) {
	fsys, err := ffs.NewFileSystem(testParams(), core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(fsys)
	if err != nil {
		t.Fatal(err)
	}
	fsys.FaultHook = faults.MustParse("ioerr@alloc:1")
	if err := st.Apply(trace.Op{Kind: trace.OpCreate, ID: 7, Cg: 1, Size: 64 << 10}); err != nil {
		t.Fatalf("faulted create not absorbed: %v", err)
	}
	if st.Skipped != 1 || st.Faulted != 1 || st.NoSpace != 0 {
		t.Errorf("Skipped %d Faulted %d NoSpace %d, want 1 1 0", st.Skipped, st.Faulted, st.NoSpace)
	}
	if st.lookup(7) != nil {
		t.Error("the faulted create left a live file")
	}
	if err := st.Apply(trace.Op{Kind: trace.OpCreate, ID: 7, Cg: 1, Size: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if st.lookup(7) == nil || st.Skipped != 1 {
		t.Errorf("retried create: live %v, Skipped %d", st.lookup(7) != nil, st.Skipped)
	}
	if err := fsys.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestStepperIDTables sends creates, rewrites and deletes with IDs far
// apart through both ID tables and checks that each lands on its own
// file, that absent IDs read as lost, and that the stepper's errors
// still fire.
func TestStepperIDTables(t *testing.T) {
	fsys, err := ffs.NewFileSystem(testParams(), core.Original{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(fsys)
	if err != nil {
		t.Fatal(err)
	}
	apply := func(kind trace.OpKind, id int64, size int64) {
		t.Helper()
		if err := st.Apply(trace.Op{Kind: kind, ID: id, Cg: int16(id&3) + 1, Size: size}); err != nil {
			t.Fatalf("%v %d: %v", kind, id, err)
		}
	}
	ids := []int64{0, 60000, -1, -50000}
	for i, id := range ids {
		apply(trace.OpCreate, id, int64(i+1)<<10)
	}
	if len(st.snap) != 60001 || len(st.short) != 50000 {
		t.Fatalf("tables hold %d snapshot and %d short-lived IDs, want 60001 and 50000", len(st.snap), len(st.short))
	}
	apply(trace.OpRewrite, 60000, 9<<10)
	apply(trace.OpDelete, -1, 0)
	apply(trace.OpDelete, -1, 0) // lost: counts as a skip
	apply(trace.OpDelete, 59999, 0)
	apply(trace.OpRewrite, -7, 3<<10) // rewrite of an absent ID creates it
	want := map[int64]int64{0: 1 << 10, 60000: 9 << 10, -50000: 4 << 10, -7: 3 << 10}
	for _, id := range []int64{0, 1, 59999, 60000, 60001, -1, -7, -50000, -50001} {
		f := st.lookup(id)
		size, live := want[id]
		switch {
		case live != (f != nil):
			t.Errorf("id %d: live %v, want %v", id, f != nil, live)
		case live && (f.Name != strconv.FormatInt(id, 10) || f.Size != size):
			t.Errorf("id %d: file %q of %d bytes, want %d bytes", id, f.Name, f.Size, size)
		}
	}
	if st.Skipped != 2 {
		t.Errorf("Skipped %d, want 2 (the lost deletes)", st.Skipped)
	}
	if err := st.Apply(trace.Op{Kind: trace.OpCreate, ID: -50000, Cg: 1, Size: 1}); err == nil || !strings.Contains(err.Error(), "create of live id") {
		t.Errorf("create of a live short-lived id: %v", err)
	}
	for _, id := range []int64{maxID, -maxID} {
		if err := st.Apply(trace.Op{Kind: trace.OpCreate, ID: id, Cg: 1, Size: 1}); err == nil {
			t.Errorf("create of id %d beyond the tables' reach succeeded", id)
		}
	}
	if err := fsys.Check(); err != nil {
		t.Fatal(err)
	}

	// A second file named after a live ID makes the file system
	// unreadable as a replay's.
	if _, err := fsys.CreateFile(st.dirs[2], "60000", 1<<10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStepper(fsys); err == nil || !strings.Contains(err.Error(), "two files for id 60000") {
		t.Errorf("NewStepper with two files for one id: %v", err)
	}
}

// TestStepperResumesFromImage splits a replay mid-day, just after a
// short-lived create, saves the image and resumes on a new stepper. The
// new stepper must rebuild both ID tables from the image, and the
// resumed replay must end byte-identical to an uninterrupted one.
func TestStepperResumesFromImage(t *testing.T) {
	ops := testWorkload(3, 20).Ops
	split := len(ops) / 2
	for split < len(ops) && !(ops[split-1].ShortLived && ops[split-1].Kind == trace.OpCreate) {
		split++
	}
	if split == len(ops) {
		t.Fatal("no short-lived create in the workload's second half")
	}
	run := func(fsys *ffs.FileSystem, ops []trace.Op) *Stepper {
		t.Helper()
		st, err := NewStepper(fsys)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			if err := st.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	newFs := func() *ffs.FileSystem {
		fsys, err := ffs.NewFileSystem(testParams(), core.Realloc{})
		if err != nil {
			t.Fatal(err)
		}
		return fsys
	}
	whole := run(newFs(), ops)
	first := run(newFs(), ops[:split])
	loaded, err := ffs.LoadImage(bytes.NewReader(imageOf(t, first.fsys)), core.Realloc{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewStepper(loaded)
	if err != nil {
		t.Fatal(err)
	}
	liveShort := 0
	for _, op := range ops {
		a, b := first.lookup(op.ID), resumed.lookup(op.ID)
		if (a == nil) != (b == nil) || (a != nil && a.Ino != b.Ino) {
			t.Fatalf("id %d: rebuilt table disagrees with the live one", op.ID)
		}
		if b != nil && op.ID < 0 {
			liveShort++
		}
	}
	if liveShort == 0 || len(resumed.snap) == 0 {
		t.Fatalf("rebuilt tables hold %d live short-lived IDs and %d snapshot slots, want both > 0", liveShort, len(resumed.snap))
	}
	for _, op := range ops[split:] {
		if err := resumed.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(imageOf(t, resumed.fsys), imageOf(t, whole.fsys)) {
		t.Error("resumed replay's image differs from the uninterrupted one's")
	}
	if got := first.Skipped + resumed.Skipped; got != whole.Skipped {
		t.Errorf("skipped %d ops across the split, %d uninterrupted", got, whole.Skipped)
	}
}
