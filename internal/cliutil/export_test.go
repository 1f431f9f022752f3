package cliutil

import (
	"bytes"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteExport checks both destinations: a path gets a new file
// holding exactly what write wrote and one "wrote" log line; "-" goes
// to stdout and logs nothing.
func TestWriteExport(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	flags := log.Flags()
	log.SetFlags(0)
	t.Cleanup(func() {
		log.SetOutput(os.Stderr)
		log.SetFlags(flags)
	})
	write := func(w io.Writer) error {
		_, err := io.WriteString(w, "a,b\n1,2\n")
		return err
	}

	path := filepath.Join(t.TempDir(), "out.csv")
	WriteExport(path, write)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n1,2\n" {
		t.Errorf("file holds %q", got)
	}
	if want := "wrote " + path + "\n"; logged.String() != want {
		t.Errorf("logged %q, want %q", logged.String(), want)
	}

	logged.Reset()
	stdout := os.Stdout
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = tmp
	WriteExport("-", write)
	os.Stdout = stdout
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "a,b\n1,2\n" {
		t.Errorf("stdout got %q", got)
	}
	if strings.Contains(logged.String(), "wrote") {
		t.Errorf("stdout export logged %q", logged.String())
	}
}
