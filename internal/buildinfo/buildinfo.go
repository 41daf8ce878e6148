// Package buildinfo reports what binary is running: the module version
// and the VCS revision baked in by the Go toolchain. Every CLI's
// -version flag and the daemon's /healthz answer from here, so "which
// build produced this run record" is always answerable — a management
// plane that can't identify its own build can't explain a digest drift.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Info is one binary's identity.
type Info struct {
	Version  string `json:"version"`            // module version ("(devel)" for tree builds)
	Revision string `json:"revision,omitempty"` // VCS commit, short form
	Dirty    bool   `json:"dirty,omitempty"`    // tree had local modifications
	Go       string `json:"go"`                 // toolchain that built the binary
}

// Get reads the build information stamped into the running binary.
// Outside a module build (some test harnesses) every field degrades to
// "unknown" rather than erroring — identity is best-effort by nature.
func Get() Info {
	info := Info{Version: "unknown", Go: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			if len(s.Value) > 12 {
				info.Revision = s.Value[:12]
			} else {
				info.Revision = s.Value
			}
		case "vcs.modified":
			info.Dirty = s.Value == "true"
		}
	}
	return info
}

// String renders the identity the way -version prints it:
// "<tool> <version> (<revision>[, dirty]) go1.xx".
func (i Info) String() string {
	rev := i.Revision
	if rev == "" {
		rev = "no vcs"
	}
	if i.Dirty {
		rev += ", dirty"
	}
	return fmt.Sprintf("%s (%s) %s", i.Version, rev, i.Go)
}
