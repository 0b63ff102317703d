package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles and vets benchmark/, a Go module of its
// own that `go test ./...` never reaches, against this checkout. It
// compiles against the layers' public names, so a change that removes or
// renames one fails here, not only when the benchmark is next run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the benchmark module")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "-C", "benchmark", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C benchmark vet ./...: %v\n%s", err, out)
	}
}
