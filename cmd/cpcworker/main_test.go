package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"
)

// coresDefault matches the -cores default, which is the host's CPU count.
var coresDefault = regexp.MustCompile(`(  -cores int\n.*)\(default \d+\)\n`)

// TestFlagSurfaceMatchesGolden pins cpcworker's flag surface — names, types,
// defaults and usage strings — to testdata/flags.golden: the output of the
// parent build's `cpcworker -h` minus its "Usage of <path>:" line, captured
// from that binary on a 2-CPU host. The -cores default is runtime.NumCPU(),
// so the golden's count is read as this host's before comparing. A knob
// added, removed, renamed or re-defaulted fails here; the golden is then
// updated by hand as a reviewed change, never regenerated from the code it
// checks.
func TestFlagSurfaceMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := coresDefault.ReplaceAll(golden, []byte(fmt.Sprintf("${1}(default %d)\n", runtime.NumCPU())))
	fs := flag.NewFlagSet("cpcworker", flag.ContinueOnError)
	var got bytes.Buffer
	fs.SetOutput(&got)
	registerFlags(fs)
	fs.PrintDefaults()
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("flag surface drifted from testdata/flags.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
