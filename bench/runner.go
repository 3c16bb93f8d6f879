package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runner describes the machine and source a run measured. Numbers from
// runners with different ids are not comparable; every output carries
// the id so they are never compared silently.
type runner struct {
	nproc, gomaxprocs int
	cpu, goVersion    string
	commit, dirty     string
}

func currentRunner() runner {
	r := runner{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpu:        cpuModel(),
		goVersion:  runtime.Version(),
		commit:     "unknown",
		dirty:      "unknown",
	}
	// Only a checkout's own .git counts: git would otherwise describe
	// whatever repository encloses the directory.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			r.commit = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			r.dirty = fmt.Sprint(len(strings.TrimSpace(string(out))) > 0)
		}
	}
	return r
}

// id hashes what decides the numbers a machine produces.
func (r runner) id() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d|%d|%s|%s", r.nproc, r.gomaxprocs, r.cpu, r.goVersion)))
	return hex.EncodeToString(h[:4])
}

func (r runner) String() string {
	return fmt.Sprintf("runner id=%s nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s dirty=%s",
		r.id(), r.nproc, r.gomaxprocs, r.cpu, r.goVersion, r.commit, r.dirty)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
