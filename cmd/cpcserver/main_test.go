package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// TestFlagSurfaceMatchesGolden pins cpcserver's flag surface — names, types,
// defaults and usage strings — to testdata/flags.golden: the output of the
// parent build's `cpcserver -h` minus its "Usage of <path>:" line, captured
// from that binary. A knob added, removed, renamed or re-defaulted fails
// here; the golden is then updated by hand as a reviewed change, never
// regenerated from the code it checks.
func TestFlagSurfaceMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("cpcserver", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	registerFlags(fs)
	fs.PrintDefaults()
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface drifted from testdata/flags.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
