// Quickstart: create a simulated FFS with the realloc allocation
// policy, write a few files, and look at their on-disk layout and the
// time the modelled disk would take to read them back.
package main

import (
	"fmt"
	"log"

	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
)

func main() {
	// A 64 MB file system with the paper's block geometry (8 KB blocks,
	// 1 KB fragments, 56 KB clusters) under the realloc policy.
	params := ffs.PaperParams()
	params.SizeBytes = 64 << 20
	params.NumCg = 8
	fsys, err := ffs.NewFileSystem(params, core.Realloc{})
	if err != nil {
		log.Fatal(err)
	}

	// Create a project directory and a few files in it.
	dir, err := fsys.Mkdir(fsys.Root(), "project", 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, f := range []struct {
		name string
		size int64
	}{
		{"notes.txt", 3 << 10},   // a fragment-tail file
		{"paper.ps", 96 << 10},   // exactly the twelve direct blocks
		{"trace.dat", 500 << 10}, // needs an indirect block
		{"checkpoint", 4 << 20},  // a big one
	} {
		if _, err := fsys.CreateFile(dir, f.name, f.size, 0); err != nil {
			log.Fatal(err)
		}
	}

	// Inspect the layout.
	fmt.Println("file layout:")
	for _, f := range layout.AllFiles(fsys) {
		score, blocks, ok := layout.FileScore(f, fsys.FragsPerBlock())
		extents := f.ExtentCount(fsys.FragsPerBlock())
		if !ok {
			fmt.Printf("  %-22s %8d bytes  (single block, no score)\n", f.Path(), f.Size)
			continue
		}
		fmt.Printf("  %-22s %8d bytes  score %.2f over %d blocks, %d extent(s)\n",
			f.Path(), f.Size, score, blocks+1, extents)
	}
	fmt.Printf("aggregate layout score: %.3f\n\n", layout.FsAggregate(fsys))

	// Time a sequential read of the biggest file on the modelled disk
	// (Seagate ST32430N behind a BusLogic 946C, as in the paper).
	d := disk.New(disk.PaperParams())
	part := disk.NewPartition(d, d.Params().Geom.TotalSectors()/4,
		params.SizeBytes/int64(d.Params().Geom.SectorSize))
	checkpoint, _ := fsys.Lookup(dir, "checkpoint")
	elapsed := 0.0
	for _, e := range checkpoint.AppendReadSequence(nil, fsys.FragsPerBlock()) {
		off := int64(e.Addr) * int64(params.FragSize)
		elapsed += part.Read(off, int64(e.Frags)*int64(params.FragSize))
	}
	fmt.Printf("sequential read of %s (%d KB): %.1f ms → %.2f MB/s\n",
		checkpoint.Name, checkpoint.Size>>10, elapsed*1e3,
		float64(checkpoint.Size)/elapsed/1e6)
}
