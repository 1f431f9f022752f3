package cliutil

import (
	"io"
	"log"
	"os"
)

// WriteExport writes one export through write: to stdout when path is
// "-", otherwise to a new file at path, logging its name once written.
// Any failure is fatal.
func WriteExport(path string, write func(w io.Writer) error) {
	f := os.Stdout
	if path != "-" {
		var err error
		f, err = os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if path != "-" {
		log.Printf("wrote %s", path)
	}
}
