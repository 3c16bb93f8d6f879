package printer_test

import (
	"errors"
	"testing"

	"gauntlet/internal/p4/lexer"
	"gauntlet/internal/p4/parser"
	"gauntlet/internal/p4/printer"
)

// FuzzPrintParse feeds arbitrary source to the parser. Whatever parses
// must print to text that hashes to its Fingerprint, parses again, and
// prints the same text the second time: the round trip Compile relies
// on after every pass, and the hash its skip rule keeps. Source with a
// lexical error anywhere must fail with the first one lexer.ScanAll
// reports, whatever syntax errors come before it.
// Seeds (testdata/fuzz/FuzzPrintParse) are generator programs for
// v1model and TNA and two registry witnesses.
func FuzzPrintParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if _, lerrs := lexer.ScanAll(src); len(lerrs) > 0 {
			var perr *parser.Error
			if !errors.As(err, &perr) || perr.Pos != lerrs[0].Pos || perr.Msg != lerrs[0].Msg {
				t.Fatalf("Parse = %v, want the first lexical error %v", err, lerrs[0])
			}
			return
		}
		if err != nil {
			return
		}
		text := printer.Print(prog)
		if got, want := printer.Fingerprint(prog), hashPrinted(text); got != want {
			t.Fatalf("Fingerprint %#x, FNV-1a of Print %#x", got, want)
		}
		again, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if second := printer.Print(again); second != text {
			t.Fatalf("printing the re-parsed program changed the text:\nfirst:\n%s\nsecond:\n%s", text, second)
		}
	})
}
