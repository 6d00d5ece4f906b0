package aging

import (
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
	if st.byID[7] != nil {
		t.Error("the faulted create left a live file")
	}
	if err := st.Apply(trace.Op{Kind: trace.OpCreate, ID: 7, Cg: 1, Size: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	if st.byID[7] == nil || st.Skipped != 1 {
		t.Errorf("retried create: live %v, Skipped %d", st.byID[7] != nil, st.Skipped)
	}
	if err := fsys.Check(); err != nil {
		t.Fatal(err)
	}
}
