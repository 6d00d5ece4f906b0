// Package ffs is a dirmap fixture standing in for ffsage/internal/ffs:
// directory tables here are entry slices with a name → slot index, so
// any map[string]*File — declared, made, literal'd, or ranged over — is
// a finding. Maps with other keys or elements are not.
package ffs

import "sort"

// File mirrors the real package's central type.
type File struct {
	Name string
	Size int64
}

type badDir struct {
	files map[string]*File // want `map\[string\]\*File directory table: iterates in random order; keep entries in a slice with a map\[string\]int32 name → slot index instead`
}

func makeBad() map[string]*File { // want `map\[string\]\*File directory table`
	return make(map[string]*File) // want `map\[string\]\*File directory table`
}

// aliased shapes are caught through the underlying type.
type table = map[string]*File // want `map\[string\]\*File directory table`

func walk(m map[string]*File) []string { // want `map\[string\]\*File directory table`
	var names []string
	for name := range m { // want `range over a map\[string\]\*File directory table: iteration order is randomized; range the entries slice instead`
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The sanctioned representation and unrelated maps pass untouched.
type goodDir struct {
	entries []dirEnt
	slots   map[string]int32 // name → slot: holds no *File
	byIno   map[int64]*File  // int64 key: the live-file index, not a directory table
	sizes   map[string]int64
}

type dirEnt struct {
	name string
	file *File
}

func (d *goodDir) lookup(name string) *File {
	if i, ok := d.slots[name]; ok {
		return d.entries[i].file
	}
	return nil
}
