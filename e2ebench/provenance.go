package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// provenance stamps a result with the hardware, toolchain, code and
// inputs it was measured on.
func provenance(o options, s *spec, senders int) map[string]any {
	flush := "in-memory shards, no journal"
	if s.journaled {
		flush = "journal fsync on, 2ms group-commit window"
	}
	rates := make(map[string]float64)
	for _, st := range s.streams {
		rates[st.name] = st.rate
	}
	return map[string]any{
		"workload":              s.name,
		"seed":                  o.seed,
		"seconds":               o.seconds,
		"trace":                 o.trace,
		"smoke":                 o.smoke,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"nproc":                 runtime.NumCPU(),
		"cpu_model":             cpuModel(),
		"go_version":            runtime.Version(),
		"commit":                commit(),
		"source_sha256":         sourceHash(),
		"flush_policy":          flush,
		"population":            s.population,
		"open_loop_rates_per_s": rates,
		"closed_loop_clients":   senders,
		"trace_sample":          traceSample,
		"gateway_inflight":      gatewayInflight,
	}
}

// cpuTicks reads the machine's CPU time from /proc/stat: the ticks the
// hypervisor gave to other guests while this one wanted to run (steal),
// and all ticks. ok is false where there is no /proc/stat.
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i, x := range f[1:9] {
		v, err := strconv.ParseUint(x, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

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

// commit is the VCS revision the binary was built from, when the build
// saw one; a checkout without history reports "unknown", and
// source_sha256 identifies the code instead.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under the working
// directory (the repository root), skipping hidden directories such as
// the build output.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".mod")) {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
