package bench

import (
	"fmt"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/disk"
)

func TestHotFilesRepeated(t *testing.T) {
	img := smallImage(t, core.Realloc{})
	dir, _ := img.Mkdir(img.Root(), "h", 280)
	for i := 0; i < 10; i++ {
		if _, err := img.CreateFile(dir, fmt.Sprintf("f%d", i), 200<<10, 290); err != nil {
			t.Fatal(err)
		}
	}
	res, err := HotFilesRepeated(img, disk.PaperParams(), 280, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 10 || res.Read.N != 10 || res.Write.N != 10 {
		t.Fatalf("res = %+v", res)
	}
	// The paper: standard deviations below 2% of the mean. Rotational
	// phase is the only noise source, so ours should satisfy the same
	// bound.
	if rel := res.Read.RelStdDev(); rel > 0.02 {
		t.Errorf("read sd/mean = %.3f, want < 0.02", rel)
	}
	if rel := res.Write.RelStdDev(); rel > 0.02 {
		t.Errorf("write sd/mean = %.3f, want < 0.02", rel)
	}
	// Phase must actually vary the measurements (a zero spread would
	// mean InitialSpin is not wired through).
	if res.Read.Min == res.Read.Max && res.Write.Min == res.Write.Max {
		t.Error("no run-to-run variation at all")
	}
	if _, err := HotFilesRepeated(img, disk.PaperParams(), 280, 0); err == nil {
		t.Error("zero runs accepted")
	}
}
