package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is the record printed with every result: the machine,
// the toolchain, the commit and seed, and whatever the workload noted
// (its computed working set beside the cache sizes, for one).
func environment(r *run) map[string]any {
	env := map[string]any{
		"workload":   r.name,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"traced":     r.tr != nil,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"l2":         cacheSize(2),
		"l3":         cacheSize(3),
		"commit":     commit(),
	}
	for k, v := range r.record {
		env[k] = v
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSize reads the size of CPU 0's unified cache at a level from
// sysfs ("4096K"), or "unknown".
func cacheSize(level int) string {
	const dir = "/sys/devices/system/cpu/cpu0/cache/"
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "unknown"
	}
	for _, e := range entries {
		lv, err1 := os.ReadFile(dir + e.Name() + "/level")
		typ, err2 := os.ReadFile(dir + e.Name() + "/type")
		if err1 != nil || err2 != nil || strings.TrimSpace(string(lv)) != string(rune('0'+level)) ||
			strings.TrimSpace(string(typ)) != "Unified" {
			continue
		}
		if size, err := os.ReadFile(dir + e.Name() + "/size"); err == nil {
			return strings.TrimSpace(string(size))
		}
	}
	return "unknown"
}

// commit is the VCS revision the toolchain stamped into the binary; a
// checkout without git history has none.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}
